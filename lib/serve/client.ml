exception Timeout
exception Protocol_error of string

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  timeout_s : float;
  mutable eof : bool;
}

let connect ?(timeout_s = 10.0) addr =
  let fd =
    match addr with
    | Server.Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with e -> Unix.close fd; raise e);
        (* a request written behind an unacknowledged one must not wait
           for the server's delayed ACK *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        fd
    | Server.Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX path)
         with e -> Unix.close fd; raise e);
        fd
  in
  { fd; buf = Buffer.create 256; timeout_s; eof = false }

let send t line =
  let data = line ^ "\n" in
  let len = String.length data in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring t.fd data !off (len - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let shutdown_send t =
  try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type reply = { line : int; tag : string; info : string; body : string list }

(* one buffered line, bounded by [deadline]; [None] on EOF *)
let rec read_line t deadline =
  let data = Buffer.contents t.buf in
  match String.index_opt data '\n' with
  | Some i ->
      Buffer.clear t.buf;
      Buffer.add_substring t.buf data (i + 1) (String.length data - i - 1);
      Some (String.sub data 0 i)
  | None ->
      if t.eof then
        if data = "" then None
        else begin
          Buffer.clear t.buf;
          Some data
        end
      else begin
        let now = Unix.gettimeofday () in
        if now >= deadline then raise Timeout;
        (match
           Unix.select [ t.fd ] [] [] (Float.min 0.25 (deadline -. now))
         with
        | [], _, _ -> ()
        | _ -> (
            let b = Bytes.create 4096 in
            match Unix.read t.fd b 0 (Bytes.length b) with
            | 0 -> t.eof <- true
            | k -> Buffer.add_subbytes t.buf b 0 k
            | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _)
              ->
                ()
            | exception Unix.Unix_error _ -> t.eof <- true)
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        read_line t deadline
      end

let parse_status line =
  let fail () =
    raise (Protocol_error (Printf.sprintf "unparseable status line %S" line))
  in
  if not (String.starts_with ~prefix:"-- [" line) then fail ();
  match String.index_opt line ']' with
  | None -> fail ()
  | Some j -> (
      let n =
        match int_of_string_opt (String.sub line 4 (j - 4)) with
        | Some n -> n
        | None -> fail ()
      in
      let rest =
        String.trim (String.sub line (j + 1) (String.length line - j - 1))
      in
      match String.index_opt rest ':' with
      | None -> (n, rest, "")
      | Some c ->
          ( n,
            String.sub rest 0 c,
            String.trim
              (String.sub rest (c + 1) (String.length rest - c - 1)) ))

(* "plan 0.12 ms, exec 0.05 ms, 3 rows" -> 3 *)
let rows_of_info info =
  let toks =
    List.filter
      (fun x -> x <> "")
      (String.split_on_char ' '
         (String.map (fun c -> if c = ',' then ' ' else c) info))
  in
  let rec go = function
    | a :: "rows" :: _ -> int_of_string_opt a
    | _ :: rest -> go rest
    | [] -> None
  in
  go toks

let recv t =
  let deadline = Unix.gettimeofday () +. t.timeout_s in
  match read_line t deadline with
  | None -> None
  | Some status ->
      let n, tag, info = parse_status status in
      let body =
        if tag = "hit" || tag = "miss" then
          match rows_of_info info with
          | None ->
              raise (Protocol_error ("no row count in status: " ^ status))
          | Some rows ->
              List.init (rows + 1) (fun _ ->
                  match read_line t deadline with
                  | Some l -> l
                  | None -> raise (Protocol_error "EOF inside a table"))
        else []
      in
      Some { line = n; tag; info; body }

let recv_all t =
  let rec go acc =
    match recv t with None -> List.rev acc | Some r -> go (r :: acc)
  in
  go []

let table_csv r =
  match r.body with
  | [] -> None
  | body -> Some (String.concat "\n" body ^ "\n")

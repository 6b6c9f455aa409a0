(* Line-protocol client for [Serve.Server], read through [select]: the
   traced run's socket replay drives it from a generator process. The
   framing is the server's: a [-- [N] tag: info] status line, followed
   — for [hit] / [miss] with [K rows] — by exactly K + 1 CSV lines.
   Replies are matched to requests by [N], the session's line number,
   not by arrival order ([\tenant use] replies overtake queued
   queries). *)

type reply = { line : int; tag : string; info : string; body : string }

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable line_no : int;  (* lines sent, as the server numbers them *)
  mutable tenant : string;  (* tenant the session will be on *)
  mutable partial : (reply * int) option;  (* status read, rows owed *)
  body : Buffer.t;
}

let connect addr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match addr with
  | Serve.Server.Tcp port ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | Serve.Server.Unix_path _ -> invalid_arg "Net.connect: TCP only");
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; inbuf = Buffer.create 4096; line_no = 0;
    tenant = Serve.Tenancy.default_id; partial = None;
    body = Buffer.create 256 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    let k = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + k)

(* Send one query on the session's tenant (see [switch]); returns the
   line number its reply will carry. *)
let send c sql =
  c.line_no <- c.line_no + 1;
  write_all c.fd (sql ^ "\n") 0;
  c.line_no

exception Protocol of string

let parse_status l =
  (* -- [N] tag: info *)
  match String.index_opt l ']' with
  | Some j when String.length l > 4 && String.sub l 0 4 = "-- [" -> (
      let line = int_of_string (String.sub l 4 (j - 4)) in
      let rest = String.sub l (j + 2) (String.length l - j - 2) in
      match String.index_opt rest ':' with
      | Some k ->
          let tag = String.sub rest 0 k in
          let info =
            if k + 2 <= String.length rest then
              String.sub rest (k + 2) (String.length rest - k - 2)
            else ""
          in
          { line; tag; info; body = "" }
      | None -> { line; tag = rest; info = ""; body = "" })
  | _ -> raise (Protocol l)

(* "plan 1.20 ms, exec 3.40 ms, 5 rows" -> 5 *)
let rows_of info =
  match List.rev (String.split_on_char ',' info) with
  | last :: _ -> (
      match String.split_on_char ' ' (String.trim last) with
      | [ k; "rows" ] -> int_of_string k
      | _ -> raise (Protocol info))
  | [] -> raise (Protocol info)

let feed_line c l acc =
  match c.partial with
  | None ->
      let r = parse_status l in
      if r.tag = "hit" || r.tag = "miss" then begin
        Buffer.clear c.body;
        c.partial <- Some (r, rows_of r.info + 1);
        acc
      end
      else r :: acc
  | Some (r, owed) ->
      Buffer.add_string c.body l;
      Buffer.add_char c.body '\n';
      if owed = 1 then begin
        c.partial <- None;
        { r with body = Buffer.contents c.body } :: acc
      end
      else begin
        c.partial <- Some (r, owed - 1);
        acc
      end

let chunk = Bytes.create 65536

(* Read what is available and return the complete replies, oldest
   first; [None] at EOF. *)
let read_replies c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> None
  | k ->
      Buffer.add_subbytes c.inbuf chunk 0 k;
      let data = Buffer.contents c.inbuf in
      Buffer.clear c.inbuf;
      let len = String.length data in
      let rec lines start acc =
        match String.index_from_opt data start '\n' with
        | Some i -> lines (i + 1) (feed_line c (String.sub data start (i - start)) acc)
        | None ->
            if start < len then Buffer.add_substring c.inbuf data start (len - start);
            acc
      in
      Some (List.rev (lines 0 []))

(* Wait up to [timeout] seconds for replies; calls [on_reply] on each
   (directive acknowledgements included: callers match replies by line
   number). Returns false at EOF. *)
let poll c ~timeout on_reply =
  match Unix.select [ c.fd ] [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | [], _, _ -> true
  | _ -> (
      match read_replies c with
      | None -> false
      | Some rs ->
          List.iter on_reply rs;
          true)

(* a directive line (no query): it still consumes a line number *)
let directive c text =
  c.line_no <- c.line_no + 1;
  write_all c.fd (text ^ "\n") 0

(* switch the session's tenant with a directive of its own *)
let switch c tenant =
  c.tenant <- tenant;
  directive c ("\\tenant use " ^ tenant)

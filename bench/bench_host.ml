(* Host metadata every committed report carries, so a figure can be
   read against the machine and revision that produced it. *)

let cores = Domain.recommended_domain_count ()

(* the checkout's git revision ("-dirty" when the tree has
   uncommitted changes), or "unknown" outside a repository *)
let rev () =
  match
    Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null"
  with
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some r when r <> "" -> r
      | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let json ~jobs =
  Relalg.Json.Obj
    [ ("host_cores", Relalg.Json.Int cores);
      ("jobs", Relalg.Json.Int jobs);
      ("jobs_within_cores", Relalg.Json.Bool (jobs <= cores));
      ("ocaml", Relalg.Json.String Sys.ocaml_version);
      ("rev", Relalg.Json.String (rev ())) ]

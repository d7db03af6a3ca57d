(* Diagnostics emitted by lint rules: location + rule id + message, with
   stable ordering and both human and machine renderings. *)

type t = {
  file : string;  (* display path, e.g. "lib/graph/digraph.ml" *)
  line : int;  (* 1-based *)
  col : int;  (* 0-based, matching compiler convention *)
  rule : string;  (* e.g. "POLY02" *)
  msg : string;
}

let make ~file ~loc ~rule msg =
  let p = loc.Location.loc_start in
  { file; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule; msg }

let compare_diag a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

(* One finding per place and rule: where two checks see the same
   expression (POLY02's hot-loop walk and its hot-module half), the
   first message in sort order stands. *)
let rec drop_repeats = function
  | a :: b :: rest when compare_diag a b = 0 -> drop_repeats (a :: rest)
  | a :: rest -> a :: drop_repeats rest
  | [] -> []

let dedup_sort diags =
  drop_repeats
    (List.sort
       (fun a b ->
         let c = compare_diag a b in
         if c <> 0 then c else String.compare a.msg b.msg)
       diags)

let to_text d = Printf.sprintf "%s:%d:%d: %s %s" d.file d.line d.col d.rule d.msg

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json d =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","message":"%s"}|}
    (json_escape d.file) d.line d.col (json_escape d.rule) (json_escape d.msg)

let list_to_json diags =
  "[" ^ String.concat "," (List.map to_json diags) ^ "]"

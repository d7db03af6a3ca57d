type cell = Int of int | Float of float | Pct of float | Text of string

type t = {
  title : string;
  columns : string list;
  rows : cell list list;
  notes : string list;
}

let value = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Pct f -> Printf.sprintf "%.4g" (100. *. f)
  | Text s -> s

let check r =
  let width = List.length r.columns in
  if List.exists (fun row -> List.length row <> width) r.rows then
    invalid_arg "Report: ragged row"

let escape field =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') field
  in
  if not needs_quoting then field
  else begin
    let buf = Buffer.create (String.length field + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let csv r =
  check r;
  let line fields = String.concat "," (List.map escape fields) ^ "\n" in
  String.concat ""
    (line r.columns :: List.map (fun row -> line (List.map value row)) r.rows)

let print ppf r =
  check r;
  (* A pipe inside a cell would end it: Fig 12(c)'s series are "G(|L|=10)". *)
  let text s = (String.concat "\\|" (String.split_on_char '|' s), false) in
  let shown = function
    | Pct _ as c -> (value c ^ "%", true)
    | Text s -> text s
    | c -> (value c, true)
  in
  let header = List.map text r.columns in
  let body = List.map (List.map shown) r.rows in
  let widths =
    List.fold_left
      (List.map2 (fun w (s, _) -> max w (String.length s)))
      (List.map (fun _ -> 3) r.columns)
      (header :: body)
  in
  let line cells =
    let pad w (s, right) =
      let fill = String.make (w - String.length s) ' ' in
      if right then fill ^ s else s ^ fill
    in
    Format.fprintf ppf "| %s |@." (String.concat " | " (List.map2 pad widths cells))
  in
  Format.fprintf ppf "%s@.@." r.title;
  line header;
  line (List.map (fun w -> (String.make w '-', false)) widths);
  List.iter line body;
  match r.notes with
  | [] -> ()
  | notes ->
      Format.fprintf ppf "@.";
      List.iter (Format.fprintf ppf "%s@.") notes

exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let of_string ?(max_nodes = max_int) s =
  let n = ref (-1) in
  let labels = ref [||] in
  let edges = ref [] in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let parts =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun p -> p <> "")
      in
      let int_of p =
        match int_of_string_opt p with
        | Some x -> x
        | None -> fail lineno "expected integer, got %S" p
      in
      let node p =
        let v = int_of p in
        if v < 0 || !n < 0 || v >= !n then fail lineno "node %S out of range" p;
        v
      in
      match parts with
      | [] -> ()
      | [ "n"; count ] ->
          if !n >= 0 then fail lineno "duplicate node-count line";
          let c = int_of count in
          if c < 0 then fail lineno "negative node count";
          if c > max_nodes then
            fail lineno "node count %d exceeds the limit of %d" c max_nodes;
          n := c;
          labels := Array.make c 0
      | [ "l"; v; l ] ->
          let v = node v in
          !labels.(v) <- int_of l
      | [ "e"; u; v; b ] ->
          let u = node u and v = node v in
          let bound =
            if b = "*" then Pattern.Unbounded
            else begin
              let k = int_of b in
              if k < 1 then fail lineno "bound must be >= 1 or *";
              Pattern.Bounded k
            end
          in
          edges := (u, v, bound) :: !edges
      | kw :: _ -> fail lineno "unknown or malformed record %S" kw)
    (String.split_on_char '\n' s);
  if !n < 0 then fail 1 "missing node-count line";
  Pattern.make ~n:!n ~labels:!labels ~edges:!edges

let to_string p =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Pattern.node_count p));
  for u = 0 to Pattern.node_count p - 1 do
    Buffer.add_string buf (Printf.sprintf "l %d %d\n" u (Pattern.label p u))
  done;
  List.iter
    (fun (u, v, b) ->
      let bs =
        match b with Pattern.Bounded k -> string_of_int k | Pattern.Unbounded -> "*"
      in
      Buffer.add_string buf (Printf.sprintf "e %d %d %s\n" u v bs))
    (List.rev (Pattern.edges p));
  Buffer.contents buf

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (In_channel.input_all ic))

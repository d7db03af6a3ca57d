(* The qpgc wire protocol.  See the .mli for the frame layout.

   Decoding never trusts a byte: every read is preceded by a bounds check
   that raises [Parse_error] (the BOUNDS01 contract), and the caller-facing
   entry points convert in-frame failures into [Malformed] — the frame
   boundary is known from the length prefix, so a server can answer with a
   clean error and keep the connection.  Only an untrustworthy length
   prefix itself (declared payload over the cap) escapes as [Parse_error]:
   past that point the stream cannot be resynchronised. *)

exception Parse_error of int * string

let version = 1
let default_max_frame = 1 lsl 24

type request =
  | Reach of (int * int) array
  | Match of Pattern.t
  | Stats
  | Metrics
  | Dump
  | Shutdown

type response =
  | Answers of bool array
  | Matches of Pattern.result
  | Text of string
  | Error of string

type 'a decoded = Frame of 'a | Malformed of string

(* ------------------------------------------------------------------ *)
(* Bounds-checked reads *)

let bad pos msg = raise (Parse_error (pos, msg))

(* Every reader works on bytes: the daemon decodes its connection buffer
   in place, and the string entry points view their argument through
   [Bytes.unsafe_of_string], which is sound because no reader writes. *)

(* Checker: [k] more bytes at [pos] must lie inside both the buffer and
   the current frame ([limit] never exceeds [Bytes.length s], checked
   when the frame is delimited). *)
let need_frame s ~limit pos k what =
  if pos < 0 || k < 0 || pos + k > limit || pos + k > Bytes.length s then
    bad pos (Printf.sprintf "frame truncated reading %s" what)

let rd_u8 s ~limit pos what =
  need_frame s ~limit pos 1 what;
  Char.code (Bytes.unsafe_get s pos)

let rd_u32 s ~limit pos what =
  need_frame s ~limit pos 4 what;
  Int32.to_int (Bytes.get_int32_le s pos) land 0xFFFFFFFF

let rd_string s ~limit pos len what =
  need_frame s ~limit pos len what;
  Bytes.sub_string s pos len

(* ------------------------------------------------------------------ *)
(* Encoding *)

let add_u32 buf x =
  if x < 0 || x > 0xFFFFFFFF then
    invalid_arg "Server_protocol: u32 field out of range";
  Buffer.add_int32_le buf (Int32.of_int x)

let over_cap () = invalid_arg "Server_protocol: frame body exceeds the frame cap"

(* Every encoder knows its body length before writing a byte, so the
   frame goes straight into [buf] in one pass: [len] counts the body
   after the version and tag bytes.  The frame cap is checked first; a
   field that fails its u32 check midway cuts [buf] back to where the
   frame began, so a failed encode appends nothing. *)
let with_frame buf tag len body =
  let len = len + 2 in
  if len > default_max_frame then over_cap ();
  let start = Buffer.length buf in
  try
    add_u32 buf len;
    Buffer.add_uint8 buf version;
    Buffer.add_char buf tag;
    body buf
  with e ->
    Buffer.truncate buf start;
    raise e

let add_string_body buf tag s =
  with_frame buf tag (4 + String.length s) (fun b ->
      add_u32 b (String.length s);
      Buffer.add_string b s)

let add_request buf r =
  match r with
  | Reach pairs ->
      with_frame buf 'R' (4 + (8 * Array.length pairs)) (fun b ->
          add_u32 b (Array.length pairs);
          Array.iter
            (fun (u, v) ->
              add_u32 b u;
              add_u32 b v)
            pairs)
  | Match p -> add_string_body buf 'P' (Pattern_io.to_string p)
  | Stats -> with_frame buf 'S' 0 ignore
  | Metrics -> with_frame buf 'M' 0 ignore
  | Dump -> with_frame buf 'D' 0 ignore
  | Shutdown -> with_frame buf 'X' 0 ignore

(* ------------------------------------------------------------------ *)
(* The one 'H' writer *)

type match_rows = {
  rows : int;
  row_length : int -> int;
  write_row : int -> Bytes.t -> int -> int;
}

let matches_frame_length = function
  | None -> 7
  | Some m ->
      let total = ref 11 in
      for i = 0 to m.rows - 1 do
        total := !total + 4 + (4 * m.row_length i)
      done;
      !total

(* Two 16-bit halves: no [Int32] value on the row writer's path. *)
let set_u32 b pos x =
  if x < 0 || x > 0xFFFFFFFF then
    invalid_arg "Server_protocol: u32 field out of range";
  Bytes.set_uint16_le b pos (x land 0xFFFF);
  Bytes.set_uint16_le b (pos + 2) (x lsr 16)

(* Version, tag, flag and row count first, then each row after a count
   slot; the counts and the length prefix are backfilled from where the
   writes ended, so the frame goes out in one pass. *)
let write_matches b pos m =
  Bytes.set_uint8 b (pos + 4) version;
  Bytes.set b (pos + 5) 'H';
  let stop =
    match m with
    | None ->
        Bytes.set_uint8 b (pos + 6) 0;
        pos + 7
    | Some m ->
        Bytes.set_uint8 b (pos + 6) 1;
        set_u32 b (pos + 7) m.rows;
        let at = ref (pos + 11) in
        (for i = 0 to m.rows - 1 do
           let next = m.write_row i b (!at + 4) in
           set_u32 b !at ((next - !at - 4) / 4);
           at := next
         done) [@lint.hot_loop];
        !at
  in
  set_u32 b pos (stop - pos - 4);
  stop

let matches_fit len = len - 4 <= default_max_frame

(* Every row of an 'H' reply takes at least its 4-byte count, after 7
   bytes of version, tag, flag and row count. *)
let max_pattern_nodes = (default_max_frame - 7) / 4

(* The one 'A' encoder: the answer bytes already are the wire body. *)
let add_answers buf answers ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length answers - len then
    invalid_arg "Server_protocol.add_answers: slice out of range";
  with_frame buf 'A' (4 + len) (fun b ->
      add_u32 b len;
      Buffer.add_subbytes b answers off len)

let add_response buf r =
  match r with
  | Answers answers ->
      let n = Array.length answers in
      add_answers buf
        (Bytes.init n (fun i -> if answers.(i) then '\001' else '\000'))
        ~off:0 ~len:n
  | Matches m ->
      let m =
        Option.map
          (fun rows ->
            {
              rows = Array.length rows;
              row_length = (fun i -> Array.length rows.(i));
              write_row =
                (fun i b pos ->
                  let row = rows.(i) in
                  for j = 0 to Array.length row - 1 do
                    set_u32 b (pos + (4 * j)) row.(j)
                  done;
                  pos + (4 * Array.length row));
            })
          m
      in
      let len = matches_frame_length m in
      if not (matches_fit len) then over_cap ();
      (* Written aside, so that a row failing its u32 check appends
         nothing. *)
      let b = Bytes.create len in
      let (_ : int) = write_matches b 0 m in
      Buffer.add_bytes buf b
  | Text s -> add_string_body buf 'T' s
  | Error s -> add_string_body buf 'E' s

(* ------------------------------------------------------------------ *)
(* Flat reach columns *)

type pairs = {
  mutable src : int array;
  mutable dst : int array;
  mutable len : int;
}

let pairs_create () = { src = [||]; dst = [||]; len = 0 }

let pairs_truncate p n =
  if n < 0 || n > p.len then invalid_arg "Server_protocol.pairs_truncate";
  p.len <- n

(* Room for [k] more pairs, doubling so a daemon's columns settle at the
   largest cycle it has seen. *)
let reserve p k =
  let need = p.len + k in
  if need > Array.length p.src then begin
    let cap = Mono.imax need (2 * Array.length p.src) in
    let grow a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 p.len;
      a'
    in
    p.src <- grow p.src;
    p.dst <- grow p.dst
  end

(* ------------------------------------------------------------------ *)
(* Decoding *)

(* Delimit the frame at [pos] among the first [limit] bytes of [s]:
   [None] while they hold only a prefix, [Some (body, len, next)]
   otherwise.  An oversized declared length raises — the one
   unrecoverable condition. *)
let frame_bounds ~max_frame s ~pos ~limit =
  if limit < 0 || limit > Bytes.length s then
    invalid_arg "Server_protocol: fill length out of range";
  if limit - pos < 4 then None
  else begin
    let len = rd_u32 s ~limit pos "frame length" in
    if len > max_frame then
      bad pos
        (Printf.sprintf
           "declared frame length %d exceeds the %d-byte cap" len max_frame);
    if limit - (pos + 4) < len then None else Some (pos + 4, len, pos + 4 + len)
  end

(* The body parsers work inside [pos .. limit) and must consume the frame
   exactly: trailing bytes mean a count field lied about the payload. *)
let finish q ~limit at = if at <> limit then bad at "trailing bytes in frame" else q

(* The one 'R' body parser: appends the frame's pairs to [p] and returns
   their count.  [p.len] moves only once the whole body checked out, so a
   malformed frame appends nothing. *)
let parse_pairs p s ~limit pos =
  let count = rd_u32 s ~limit pos "query count" in
  let base = pos + 4 in
  need_frame s ~limit base (8 * count) "query pairs";
  finish () ~limit (base + (8 * count));
  reserve p count;
  let len = p.len in
  (* [need_frame] above covered every pair: read them unchecked by frame. *)
  for i = 0 to count - 1 do
    let at = base + (8 * i) in
    p.src.(len + i) <- Int32.to_int (Bytes.get_int32_le s at) land 0xFFFFFFFF;
    p.dst.(len + i) <-
      Int32.to_int (Bytes.get_int32_le s (at + 4)) land 0xFFFFFFFF
  done;
  p.len <- len + count;
  count

let parse_text s ~limit pos what =
  let len = rd_u32 s ~limit pos what in
  (rd_string s ~limit (pos + 4) len what, pos + 4 + len)

let parse_header s ~limit pos =
  let ver = rd_u8 s ~limit pos "version" in
  if ver <> version then
    bad pos (Printf.sprintf "unsupported protocol version %d" ver);
  rd_u8 s ~limit (pos + 1) "frame tag"

(* Every verb but 'R', whose body the caller parses into columns. *)
let parse_other s ~limit tag pos =
  let p = pos + 2 in
  if tag = Char.code 'P' then begin
    let text, at = parse_text s ~limit p "pattern text" in
    let pat =
      try Pattern_io.of_string ~max_nodes:max_pattern_nodes text
      with Pattern_io.Parse_error (line, msg) ->
        bad p (Printf.sprintf "bad pattern (line %d): %s" line msg)
    in
    finish (Match pat) ~limit at
  end
  else if tag = Char.code 'S' then finish Stats ~limit p
  else if tag = Char.code 'M' then finish Metrics ~limit p
  else if tag = Char.code 'D' then finish Dump ~limit p
  else if tag = Char.code 'X' then finish Shutdown ~limit p
  else bad pos (Printf.sprintf "unknown request verb %d" tag)

let parse_request s ~limit pos =
  let tag = parse_header s ~limit pos in
  if tag = Char.code 'R' then begin
    let p = pairs_create () in
    let (_ : int) = parse_pairs p s ~limit (pos + 2) in
    Reach (Array.init p.len (fun i -> (p.src.(i), p.dst.(i))))
  end
  else parse_other s ~limit tag pos

type flat = Pairs of int | Request of request

let parse_flat p s ~limit pos =
  let tag = parse_header s ~limit pos in
  if tag = Char.code 'R' then Pairs (parse_pairs p s ~limit (pos + 2))
  else Request (parse_other s ~limit tag pos)

let parse_answers s ~limit pos =
  let count = rd_u32 s ~limit pos "answer count" in
  let base = pos + 4 in
  need_frame s ~limit base count "answer bytes";
  let answers =
    Array.init count (fun i ->
        match rd_u8 s ~limit (base + i) "answer" with
        | 0 -> false
        | 1 -> true
        | b -> bad (base + i) (Printf.sprintf "answer byte %d is not 0/1" b))
  in
  (answers, base + count)

let parse_matches s ~limit pos =
  match rd_u8 s ~limit pos "match flag" with
  | 0 -> (None, pos + 1)
  | 1 ->
      let rows = rd_u32 s ~limit (pos + 1) "match row count" in
      let at = ref (pos + 5) in
      let result =
        Array.init rows (fun _ ->
            let count = rd_u32 s ~limit !at "match entry count" in
            need_frame s ~limit (!at + 4) (4 * count) "match entries";
            let row =
              Array.init count (fun i ->
                  rd_u32 s ~limit (!at + 4 + (4 * i)) "match entry")
            in
            at := !at + 4 + (4 * count);
            row)
      in
      (Some result, !at)
  | b -> bad pos (Printf.sprintf "match flag byte %d is not 0/1" b)

let parse_response s ~limit pos =
  let tag = parse_header s ~limit pos in
  let p = pos + 2 in
  if tag = Char.code 'A' then
    let answers, at = parse_answers s ~limit p in
    finish (Answers answers) ~limit at
  else if tag = Char.code 'H' then
    let m, at = parse_matches s ~limit p in
    finish (Matches m) ~limit at
  else if tag = Char.code 'T' then
    let text, at = parse_text s ~limit p "text payload" in
    finish (Text text) ~limit at
  else if tag = Char.code 'E' then
    let text, at = parse_text s ~limit p "error payload" in
    finish (Error text) ~limit at
  else bad pos (Printf.sprintf "unknown response kind %d" tag)

let decode parse ~max_frame s ~pos ~limit =
  match frame_bounds ~max_frame s ~pos ~limit with
  | None -> None
  | Some (body, len, next) ->
      if len < 2 then Some (Malformed "frame too short for version and tag", next)
      else begin
        match parse s ~limit:(body + len) body with
        | frame -> Some (Frame frame, next)
        | exception Parse_error (_, msg) -> Some (Malformed msg, next)
      end

let decode_string parse ?(max_frame = default_max_frame) s ~pos =
  decode parse ~max_frame (Bytes.unsafe_of_string s) ~pos
    ~limit:(String.length s)

let decode_request ?max_frame s ~pos =
  decode_string parse_request ?max_frame s ~pos

let decode_response ?max_frame s ~pos =
  decode_string parse_response ?max_frame s ~pos

let decode_into ?(max_frame = default_max_frame) p b ~pos ~len =
  decode (parse_flat p) ~max_frame b ~pos ~limit:len

let frame_ready ?(max_frame = default_max_frame) b ~pos ~len =
  match frame_bounds ~max_frame b ~pos ~limit:len with
  | None -> false
  | Some _ -> true
  | exception Parse_error _ -> true

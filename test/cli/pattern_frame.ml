(* Send each pattern text, unparsed, as the body of one 'P' frame on a
   connection of its own, and print the reply.

     pattern_frame SOCKET TEXT...

   An 'H' reply prints its row lengths, or "no match"; an 'E' reply its
   message.  Exits 1 when the daemon closes a connection before its
   reply. *)

module SP = Server_protocol

let frame text =
  let b = Buffer.create (String.length text + 10) in
  Buffer.add_int32_le b (Int32.of_int (String.length text + 6));
  Buffer.add_uint8 b SP.version;
  Buffer.add_char b 'P';
  Buffer.add_int32_le b (Int32.of_int (String.length text));
  Buffer.add_string b text;
  Buffer.contents b

let ask sock text =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let f = frame text in
      let (_ : int) = Unix.write_substring fd f 0 (String.length f) in
      let buf = Buffer.create 4096 and scratch = Bytes.create 4096 in
      let rec reply () =
        match SP.decode_response (Buffer.contents buf) ~pos:0 with
        | Some (d, _) -> d
        | None ->
            let n = Unix.read fd scratch 0 (Bytes.length scratch) in
            if n = 0 then begin
              prerr_endline "pattern_frame: connection closed before the reply";
              exit 1
            end;
            Buffer.add_subbytes buf scratch 0 n;
            reply ()
      in
      match reply () with
      | SP.Frame (SP.Matches None) -> print_endline "H: no match"
      | SP.Frame (SP.Matches (Some rows)) ->
          Printf.printf "H: rows of %s\n"
            (String.concat ", "
               (Array.to_list
                  (Array.map (fun r -> string_of_int (Array.length r)) rows)))
      | SP.Frame (SP.Error msg) -> Printf.printf "E: %s\n" msg
      | SP.Frame _ -> print_endline "another reply"
      | SP.Malformed msg -> Printf.printf "malformed reply: %s\n" msg)

let () =
  match Array.to_list Sys.argv with
  | _ :: sock :: texts -> List.iter (ask sock) texts
  | _ ->
      prerr_endline "usage: pattern_frame SOCKET TEXT...";
      exit 2

(* Flood a running daemon with idle connections while one client that
   connected before the flood keeps asking reachability queries.

     conn_flood GRAPH SOCKET N [HOLD_S]

   Opens N connections to SOCKET and reports how many the daemon refused
   with an 'E' frame and how many it left idle (open, or waiting in the
   listen backlog).  The early client's answers must equal the BFS
   oracle over GRAPH before the flood, with the flood held open for
   HOLD_S seconds (default 0), and after the flood is closed.  Exits 1
   on a divergence or on a refusal that is not an 'E' frame. *)

module SP = Server_protocol

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let check c oracle pairs when_ =
  if Server_client.reach c pairs <> oracle then
    fail "conn_flood: answers %s the flood diverge from the BFS oracle" when_;
  Printf.printf "%s the flood: %d answers match the BFS oracle\n%!"
    (String.capitalize_ascii when_) (Array.length oracle)

(* The daemon answers every connection it refuses before it reads a
   later frame from an accepted one, so once the early client has had a
   reply, a refused connection already holds its whole 'E' frame and
   EOF, and a read on any other would block. *)
let classify fd =
  Unix.set_nonblock fd;
  let buf = Buffer.create 64 and scratch = Bytes.create 256 in
  let rec go () =
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> `Closed (Buffer.contents buf)
    | n ->
        Buffer.add_subbytes buf scratch 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if Buffer.length buf = 0 then `Idle
        else fail "conn_flood: a refusal arrived without its EOF"
  in
  go ()

let () =
  let path, sock, n, hold =
    match Sys.argv with
    | [| _; p; s; n |] -> (p, s, int_of_string n, 0.0)
    | [| _; p; s; n; h |] -> (p, s, int_of_string n, float_of_string h)
    | _ -> fail "usage: conn_flood GRAPH SOCKET N [HOLD_S]"
  in
  let g = fst (Graph_io.load path) in
  let pairs =
    Reach_query.random_pairs (Random.State.make [| 3 |]) g ~count:500
  in
  let oracle = Reach_query.eval_batch Reach_query.Bfs g pairs in
  let c = Server_client.connect_unix sock in
  check c oracle pairs "before";
  let flood =
    List.init n (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd)
  in
  check c oracle pairs "during";
  let refused = ref 0 and idle = ref 0 and message = ref "" in
  List.iter
    (fun fd ->
      match classify fd with
      | `Idle -> incr idle
      | `Closed s -> (
          match SP.decode_response s ~pos:0 with
          | Some (SP.Frame (SP.Error msg), next) when next = String.length s ->
              incr refused;
              message := msg
          | _ -> fail "conn_flood: a refused connection got no 'E' frame"))
    flood;
  Printf.printf "flood: %d connection(s), %d refused with an error frame, %d idle\n"
    n !refused !idle;
  if !refused > 0 then Printf.printf "refusal: %s\n" !message;
  if hold > 0.0 then begin
    Unix.sleepf hold;
    check c oracle pairs "still during"
  end;
  List.iter Unix.close flood;
  check c oracle pairs "after";
  Server_client.close c

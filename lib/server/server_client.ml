module SP = Server_protocol

type t = {
  fd : Unix.file_descr;
  mutable buf : string;  (* received bytes not yet decoded *)
  mutable pos : int;
}

let connect fd addr =
  match Unix.connect fd addr with
  | () -> { fd; buf = ""; pos = 0 }
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let connect_unix path =
  connect (Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0)
    (Unix.ADDR_UNIX path)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      let hits =
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      in
      let rec first = function
        | [] -> failwith (Printf.sprintf "cannot resolve host %S" host)
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ :: rest -> first rest
      in
      first hits)

let connect_tcp ~host ~port =
  connect (Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0)
    (Unix.ADDR_INET (resolve_host host, port))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Read until one frame decodes; each [Unix.read] is a single bounded
   chunk and the decoder's length prefix decides when we are done. *)
let rec read_response t =
  match SP.decode_response t.buf ~pos:t.pos with
  | Some (decoded, next) ->
      t.pos <- next;
      if t.pos >= String.length t.buf then begin
        t.buf <- "";
        t.pos <- 0
      end;
      decoded
  | None -> (
      let scratch = Bytes.create 65536 in
      match Unix.read t.fd scratch 0 (Bytes.length scratch) with
      | 0 -> failwith "Server_client: server closed the connection"
      | k ->
          let tail =
            if t.pos > 0 then
              String.sub t.buf t.pos (String.length t.buf - t.pos)
            else t.buf
          in
          t.buf <- tail ^ Bytes.sub_string scratch 0 k;
          t.pos <- 0;
          read_response t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_response t)

let request t r =
  let b = Buffer.create 256 in
  SP.add_request b r;
  send_all t.fd (Buffer.contents b);
  match read_response t with
  | SP.Frame resp -> resp
  | SP.Malformed msg -> failwith ("Server_client: malformed response: " ^ msg)

let unexpected what = failwith ("Server_client: unexpected response to " ^ what)

let reach t pairs =
  match request t (SP.Reach pairs) with
  | SP.Answers a -> a
  | SP.Error e -> failwith ("Server_client: server error: " ^ e)
  | SP.Matches _ | SP.Text _ -> unexpected "reach"

let match_pattern t p =
  match request t (SP.Match p) with
  | SP.Matches m -> m
  | SP.Error e -> failwith ("Server_client: server error: " ^ e)
  | SP.Answers _ | SP.Text _ -> unexpected "match"

let text t verb what =
  match request t verb with
  | SP.Text s -> s
  | SP.Error e -> failwith ("Server_client: server error: " ^ e)
  | SP.Answers _ | SP.Matches _ -> unexpected what

let stats t = text t SP.Stats "stats"
let metrics t = text t SP.Metrics "metrics"
let dump t = text t SP.Dump "dump"
let shutdown t = text t SP.Shutdown "shutdown"

(** Blocking client for the {!Server_protocol} wire format.

    One request in flight at a time per connection: {!request} writes the
    frame and reads until exactly one response frame decodes — every read
    is driven by the length prefix, never an unbounded "read until N
    bytes" primitive.  The typed helpers ({!reach}, {!stats}, ...) raise
    [Failure] when the server replies with an error or an unexpected
    response kind. *)

type t

val connect_unix : string -> t
val connect_tcp : host:string -> port:int -> t

(** [resolve_host host] is [host]'s IPv4 address: a dotted quad as is,
    anything else through [getaddrinfo].  The daemon binds its TCP
    listeners through it too.
    @raise Failure when the name does not resolve. *)
val resolve_host : string -> Unix.inet_addr
val close : t -> unit

(** [request t r] sends [r] and returns the server's reply.
    @raise Failure when the server closes the connection or replies with
    a frame the codec rejects;
    @raise Server_protocol.Parse_error when the reply's length prefix is
    oversized. *)
val request : t -> Server_protocol.request -> Server_protocol.response

(** [reach t pairs] answers one reachability batch, in pair order. *)
val reach : t -> (int * int) array -> bool array

val match_pattern : t -> Pattern.t -> Pattern.result
val stats : t -> string
val metrics : t -> string

(** [dump t] fetches the daemon's flight recorder as Chrome-trace
    JSON. *)
val dump : t -> string

(** [shutdown t] asks the daemon to drain; returns its acknowledgement
    (["draining"]). *)
val shutdown : t -> string

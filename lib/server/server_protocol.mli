(** The qpgc wire protocol: length-prefixed, versioned binary frames.

    Every frame — request or response — is

    {v
    u32 LE   payload length (bytes after this prefix)
    u8       protocol version (currently 1)
    u8       tag (request verb / response kind)
    ...      body, tag-specific, little-endian throughout
    v}

    Request verbs: ['R'] reachability batch ([u32] count, then count
    [u32 src, u32 dst] pairs), ['P'] pattern match ([u32] length +
    {!Pattern_io} text), ['S'] stats, ['M'] metrics, ['D'] flight-recorder
    dump, ['X'] shutdown.
    Response kinds: ['A'] answers ([u32] count + one [0/1] byte per
    query), ['H'] match result, ['T'] text, ['E'] error message.

    Decoding distinguishes three situations:
    - an {e incomplete} frame (the buffer ends before the declared
      length) decodes to [None] — read more bytes and retry;
    - a {e malformed} frame whose boundary is still known (bad version,
      unknown tag, body inconsistent with the declared length) decodes to
      [Malformed] with the position one past the frame, so a server can
      reply with a clean error and keep the connection;
    - a frame whose {e length prefix itself} cannot be trusted (declared
      payload over [max_frame]) raises {!Parse_error} — the stream has
      lost sync and the connection must be dropped after an error reply.

    Every body read is bounds-checked against the buffer length and the
    frame boundary before touching the bytes (the BOUNDS01 contract), so
    corrupt input can never index out of range. *)

(** Raised with a byte offset and message when the stream cannot be
    resynchronised (oversized or negative declared length). *)
exception Parse_error of int * string

(** Current protocol version, the byte after the length prefix. *)
val version : int

(** Default cap on a frame's declared payload length (16 MiB).  Both
    sides reject larger frames: the decoder with {!Parse_error}, the
    encoder with [Invalid_argument]. *)
val default_max_frame : int

type request =
  | Reach of (int * int) array  (** batch of (source, target) queries *)
  | Match of Pattern.t  (** bounded-simulation pattern query *)
  | Stats  (** human-readable serving statistics *)
  | Metrics  (** Prometheus dump of the obs registry *)
  | Dump  (** flight-recorder dump as Chrome-trace JSON *)
  | Shutdown  (** drain and exit *)

type response =
  | Answers of bool array  (** one bit per query of a [Reach] batch *)
  | Matches of Pattern.result  (** result of a [Match] *)
  | Text of string  (** [Stats] / [Metrics] / [Shutdown] payload *)
  | Error of string  (** the request was rejected; connection state says
                         whether the stream is still in sync *)

(** A decoded frame, or a syntactically delimited but invalid one. *)
type 'a decoded = Frame of 'a | Malformed of string

(** [add_request buf r] appends the encoded frame to [buf].
    @raise Invalid_argument when the body exceeds {!default_max_frame}
    or a count field overflows its wire width. *)
val add_request : Buffer.t -> request -> unit

(** [add_response buf r] appends the encoded frame to [buf].  A
    [Matches] frame goes through {!write_matches}, the daemon's one
    ['H'] writer.
    @raise Invalid_argument when the body exceeds {!default_max_frame}
    or a count or id overflows its wire width; [buf] is then left as
    it was. *)
val add_response : Buffer.t -> response -> unit

(** [add_answers buf b ~off ~len] appends an ['A'] frame whose body is
    the [len] bytes of [b] from [off], each ['\000'] or ['\001'] (not
    checked).  The one ['A'] encoder: [add_response (Answers _)] goes
    through it, and the daemon replies with a slice of its answer bytes,
    which already are the wire body.
    @raise Invalid_argument when the slice leaves [b]. *)
val add_answers : Buffer.t -> Bytes.t -> off:int -> len:int -> unit

(** {1 The one ['H'] writer}

    An ['H'] body is a flag byte, then when it is [1] a [u32] row count
    and each row as a [u32] id count and that many [u32] ids.  The
    writer reads the rows where they lie: [add_response (Matches _)]
    hands it [int array] rows, the daemon the match bitsets of
    {!Compress_bisim.answer_into}. *)

(** Rows of a match, read in place: row [i < rows] holds [row_length i]
    ids, and [write_row i b pos] writes them as [u32] LE into [b] from
    [pos] and returns the position after them. *)
type match_rows = {
  rows : int;
  row_length : int -> int;
  write_row : int -> Bytes.t -> int -> int;
}

(** [matches_frame_length m] is the size of the ['H'] frame for [m]
    ([None]: no match), length prefix included. *)
val matches_frame_length : match_rows option -> int

(** [matches_fit len] is [true] iff a frame of [len] bytes, prefix
    included, is within {!default_max_frame}. *)
val matches_fit : int -> bool

(** [max_pattern_nodes] is the most pattern nodes an ['H'] reply can
    carry within {!default_max_frame}: each row takes at least its 4-byte
    count.  A ['P'] frame whose pattern declares more is malformed, and
    is rejected before anything is sized by that count. *)
val max_pattern_nodes : int

(** [write_matches b pos m] writes the ['H'] frame for [m] into [b] from
    [pos], which must have {!matches_frame_length} bytes of room, and
    returns the position after it.  The row counts and the length prefix
    are filled in from where each write ended, so the frame is written
    in one pass.  The frame cap is the caller's to check.
    @raise Invalid_argument when a count or id leaves the [u32] range. *)
val write_matches : Bytes.t -> int -> match_rows option -> int

(** [decode_request ?max_frame s ~pos] decodes the frame starting at
    [pos].  [Some (frame, next)] consumes bytes [pos .. next-1]; [None]
    means the buffer holds only a frame prefix.  @raise Parse_error when
    the declared length exceeds [max_frame]. *)
val decode_request :
  ?max_frame:int -> string -> pos:int -> (request decoded * int) option

val decode_response :
  ?max_frame:int -> string -> pos:int -> (response decoded * int) option

(** {1 Flat decoding}

    The daemon decodes its connection buffer in place, and each ['R']
    body straight into two int columns that it reuses across frames.
    {!decode_request} builds its [Reach] value through the same ['R']
    parser, so both give the same verdicts and messages. *)

(** Growable (source, target) columns: pair [i < len] is
    [(src.(i), dst.(i))]; the arrays may be longer than [len]. *)
type pairs = private {
  mutable src : int array;
  mutable dst : int array;
  mutable len : int;
}

(** [pairs_create ()] is an empty column pair; capacity grows on demand. *)
val pairs_create : unit -> pairs

(** [pairs_truncate p n] drops every pair at index [n] or above.
    @raise Invalid_argument unless [0 <= n <= p.len]. *)
val pairs_truncate : pairs -> int -> unit

(** What {!decode_into} found in a well-formed frame: [Pairs k] when an
    ['R'] frame appended [k] pairs to the columns, [Request r] for any
    other verb. *)
type flat = Pairs of int | Request of request

(** [decode_into ?max_frame p b ~pos ~len] is {!decode_request} over the
    first [len] bytes of [b], with an ['R'] body appended to [p].  A
    malformed frame leaves [p] as it was.
    @raise Parse_error when the declared length exceeds [max_frame]. *)
val decode_into :
  ?max_frame:int -> pairs -> Bytes.t -> pos:int -> len:int ->
  (flat decoded * int) option

(** [frame_ready ?max_frame b ~pos ~len] is [true] iff a decode attempt
    at [pos] over the first [len] bytes of [b] would yield a result right
    now — a frame, a malformed frame, or an oversized-length
    [Parse_error] — rather than needing more bytes.  Never raises on any
    input bytes: the poll the event loop uses to tell backlog from a
    partial frame. *)
val frame_ready : ?max_frame:int -> Bytes.t -> pos:int -> len:int -> bool

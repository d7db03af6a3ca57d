(** Text serialisation of pattern queries, mirroring {!Graph_io}'s format.

    {v
    n <node-count>
    l <node-id> <label-id>       # fv; defaults to 0
    e <src> <dst> <bound>        # fe; <bound> is a positive integer or *
    v} *)

(** Raised with a 1-based line number and message. *)
exception Parse_error of int * string

(** [of_string ?max_nodes s] parses a pattern.  A node count above
    [max_nodes] (no limit by default) is rejected before anything is
    sized by it.  @raise Parse_error on bad input. *)
val of_string : ?max_nodes:int -> string -> Pattern.t

(** [to_string p] prints a pattern in the format above. *)
val to_string : Pattern.t -> string

(** [load path] is the file variant of {!of_string}. *)
val load : string -> Pattern.t

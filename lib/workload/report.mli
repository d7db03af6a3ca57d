(** One experiment's result as a table: a title, named columns, rows of
    typed cells and note lines.  Every runner in {!Experiments} builds
    one, and the bench front end renders it twice: {!print} for people
    (and EXPERIMENTS.md), {!csv} for plotting scripts. *)

type cell =
  | Int of int
  | Float of float  (** written ["%.6g"] *)
  | Pct of float  (** a fraction, written as a percentage: ["%.4g"] of 100·f *)
  | Text of string

type t = {
  title : string;
  columns : string list;
  rows : cell list list;  (** each of the columns' arity *)
  notes : string list;  (** lines printed under the table, not in the CSV *)
}

(** [print ppf r] writes the title, a GitHub pipe table padded to its
    widest cells (numbers right-aligned, a [Pct] with a [%] sign, a [|]
    in a name or text escaped as [\|]) and the notes, separated by blank
    lines.
    @raise Invalid_argument on a ragged row. *)
val print : Format.formatter -> t -> unit

(** [csv r] is the header and rows as CSV, with RFC-4180 quoting.
    @raise Invalid_argument on a ragged row. *)
val csv : t -> string

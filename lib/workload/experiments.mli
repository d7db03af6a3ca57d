(** One runner per table and figure of the paper's evaluation (Sec 6).

    Each submodule has a [run] that computes the rows and a [report] that
    makes them one {!Report.t}, with the paper's own numbers where the
    paper reports them.  {!all} names every report; [bench/main.exe]
    prints them, and EXPERIMENTS.md holds a reference run, its Tables 1
    and 2 checked against the code by [test/bench/paper.t].

    All runners are deterministic for a fixed [seed].  [scale] (default 1.0)
    multiplies dataset sizes, letting a quick CI run use [~scale:0.25].

    Runners whose rows are ratios (Tables 1/2, Figs 12(i)–(l)) sweep their
    independent dataset/series arms over {!Pool.default}, so a front end
    that called {!Pool.set_default_domains} gets parallel sweeps; rows that
    measure wall-clock time keep their arms sequential (Fig 12(a) instead
    parallelises inside the measured batch via {!Reach_query.eval_batch}).
    Results are identical for every domain count. *)

type opts = { seed : int; scale : float }

(** Table 1 — reachability preserving compression ratios. *)
module Table1 : sig
  type row = {
    name : string;
    v : int;
    e : int;
    rc_aho : float;
    rc_scc : float;
    rc_r : float;
    paper_rc_aho : float option;
    paper_rc_scc : float option;
    paper_rc : float option;
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Table 2 — pattern preserving compression ratios. *)
module Table2 : sig
  type row = {
    name : string;
    v : int;
    e : int;
    l : int;
    pc_r : float;
    paper_pc : float option;
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Fig 1 — the paper's headline numbers on the P2P stand-in: how much the
    graph shrinks for each query class and how much query time that cuts. *)
module Fig1 : sig
  type t = {
    reach_reduction : float;
    pattern_reduction : float;
    reach_query_saving : float;
    pattern_query_saving : float;
  }

  val run : ?opts:opts -> unit -> t
  val report : t -> Report.t
end

(** Fig 12(a) — reachability query time on [G] vs [Gr], BFS and BiBFS,
    as percentages of BFS-on-G. *)
module Fig12a : sig
  type row = {
    name : string;
    bfs_g_ms : float;
    bibfs_g_ms : float;
    bfs_gr_ms : float;
    bibfs_gr_ms : float;
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Fig 12(b) — [Match] time vs pattern size on the labeled real-life
    stand-ins (Youtube, Citation), original vs compressed. *)
module Fig12b : sig
  type row = {
    pattern_size : int * int * int;  (** (|Vp|, |Ep|, k) *)
    series : (string * float) list;  (** series name → seconds *)
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Fig 12(c) — [Match] time vs pattern size on synthetic graphs with
    |L| = 10 and |L| = 20. *)
module Fig12c : sig
  val run : ?opts:opts -> unit -> Fig12b.row list
  val report : Fig12b.row list -> Report.t
end

(** Fig 12(d) — memory: [G], [Gr], 2-hop on [G], 2-hop on [Gr]. *)
module Fig12d : sig
  type row = {
    name : string;
    g_mb : float;
    gr_mb : float;
    twohop_g_mb : float;
    twohop_gr_mb : float;
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Figs 12(e)/(f) — incRCM vs compressR under growing insertion (resp.
    deletion) batches on the socEpinions stand-in. *)
module Fig12ef : sig
  type row = {
    delta_e : int;  (** cumulative updated edges *)
    inc_s : float;  (** incRCM seconds for this batch *)
    batch_paper_s : float;
        (** the paper's quadratic compressR (Fig 5) from scratch *)
    batch_opt_s : float;  (** this library's optimised compressR *)
  }

  val run : ?opts:opts -> deletions:bool -> unit -> row list
  val report : deletions:bool -> row list -> Report.t
end

(** Fig 12(g) — incPCM vs IncBsim vs compressB under mixed batches on the
    Youtube stand-in. *)
module Fig12g : sig
  type row = {
    delta_e : int;
    incpcm_s : float;
    incbsim_s : float;
    batch_s : float;
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Fig 12(h) — incremental pattern answering: IncBMatch on [G] vs
    incPCM + Match on [Gr], cumulative seconds over growing batches. *)
module Fig12h : sig
  type row = {
    delta_e : int;
    incbmatch_s : float;
    incpcm_match_s : float;
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Figs 12(i)/(k) — compression ratio across densification-law evolution,
    α ∈ {1.05, 1.1}. *)
module Fig12ik : sig
  type row = { step : int; ratio_low_alpha : float; ratio_high_alpha : float }

  (** [run ~pattern:false] is Fig 12(i) (RCr); [~pattern:true] Fig 12(k)
      (PCr, |L| = 10). *)
  val run : ?opts:opts -> pattern:bool -> unit -> row list
  val report : pattern:bool -> row list -> Report.t
end

(** Ablations of the design choices DESIGN.md calls out (not a paper
    artifact): the redundant-edge reduction inside [compressR] (Fig 5
    lines 6-8), the condensation+bitset equivalence computation vs the
    paper's per-node BFS, and the update-reduction step of [incRCM]. *)
module Ablation : sig
  type row = {
    name : string;
    quotient_edges : int;  (** |Er| with every hypernode edge kept *)
    reduced_edges : int;  (** |Er| after the Fig 5 redundant-edge rule *)
    optimised_s : float;  (** compressR via condensation + bitsets *)
    per_node_bfs_s : float;  (** compressR via the verbatim Fig 5 loop *)
    dropped_updates_pct : float;
        (** share of a random insertion batch filtered as redundant *)
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Beyond the paper: a deployment simulation — one compression maintained
    across 20 rounds of mixed churn with verified queries interleaved,
    tracking ratio drift and cumulative incremental-vs-recompress cost. *)
module Lifetime : sig
  type row = {
    round : int;
    delta_e_total : int;
    rc_r : float;
    inc_s_cum : float;
    batch_opt_s_cum : float;
    queries_ok : bool;
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Beyond the paper: every reachability index in the library (2-hop,
    GRAIL, tree cover) built over [G] and over [Gr] — build time, memory,
    query latency.  Quantifies "compression composes with indexing" across
    index families. *)
module Indexes : sig
  type row = {
    name : string;
    index : string;
    build_g_s : float;
    build_gr_s : float;
    mem_g_kb : float;
    mem_gr_kb : float;
    query_g_us : float;
    query_gr_us : float;
  }

  val run : ?opts:opts -> unit -> row list
  val report : row list -> Report.t
end

(** Figs 12(j)/(l) — compression ratio under power-law edge growth on
    real-life stand-ins. *)
module Fig12jl : sig
  type row = { delta_pct : int; series : (string * float) list }

  (** [run ~pattern:false] is Fig 12(j) (RCr on P2P, wikiVote, citHepTh);
      [~pattern:true] Fig 12(l) (PCr on California, Internet, Youtube). *)
  val run : ?opts:opts -> pattern:bool -> unit -> row list
  val report : pattern:bool -> row list -> Report.t
end

(** Every paper artifact and ablation by its bench name ([table1],
    [fig12e], [lifetime], ...), each a full run at the given options. *)
val all : (string * (opts -> Report.t)) list

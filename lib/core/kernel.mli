(** The kernel specification — the DP-HLS front-end contract (§4).

    A kernel packages the six user customizations of the paper:
    (1) data types and parameters (alphabet width, score width, layer
    count, scoring parameters, traceback pointer type and states, banding),
    (2) initial row/column scores, (3) the PE function, (4) the traceback
    strategy, and the structural traits the back-end needs. Parallelism
    — step (5), the (N_PE, N_B, N_K) triple — lives with the engines, and
    step (6), the host program, in [dphls_host]. *)

(** Step (3), [PE_func]: the recurrence, stated once. *)
type 'p pe =
  | Ir of ('p -> Datapath.cell * Datapath.bindings)
      (** The expression-IR cell and its parameter bindings. Every
          catalog kernel uses this form: the engines run the compiled
          program ({!flat_pe}), the RTL emitter and the checker's
          dependence, recurrence-II and fast-path passes read the cell
          ({!datapath}), and the boxed view ({!pe}) interprets it. *)
  | Closure of ('p -> Pe.f)
      (** A hand-written boxed [PE_func], closed over the scoring
          parameters: the escape hatch for user kernels the IR cannot
          express. Such a kernel has no {!datapath}, so it gets no RTL,
          no datapath passes and no bit-parallel routing. *)

type 'p t = {
  id : int;  (** Table 1 kernel number (0 for user-defined kernels) *)
  name : string;
  description : string;
  objective : Dphls_util.Score.objective;
  n_layers : int;          (** [N_LAYERS]: values stored per DP cell *)
  score_bits : int;        (** width of the score datatype [type_t] *)
  tb_bits : int;           (** bits per stored traceback pointer (0 = none) *)
  init_row : 'p -> ref_len:int -> layer:int -> col:int -> Types.score;
      (** [init_row_scr]: virtual row -1; the up/diag neighbour of row 0. *)
  init_col : 'p -> qry_len:int -> layer:int -> row:int -> Types.score;
      (** [init_col_scr]: virtual column -1. *)
  origin : 'p -> layer:int -> Types.score;
      (** Value of the virtual corner (-1,-1), the diag neighbour of (0,0). *)
  pe : 'p pe;
  score_site : Traceback.start_rule;
      (** Where the kernel's objective value is read (and where traceback
          starts when enabled). *)
  traceback : 'p -> Traceback.spec option;
      (** [None] reproduces the paper's no-traceback option (#10, #12, #14). *)
  banding : Banding.t option;
  traits : Traits.t;
}

val structural_findings : 'p t -> 'p -> (string * string) list
(** All structural problems of the spec as [(check, message)] pairs:
    positive layer count, [score_bits]/[tb_bits] in range, traceback
    consistent with [tb_bits], FSM state count and [start_state] within
    [0, n_states), traits well-formed. Empty when structurally sound.
    [validate] raises on the first of these; the static analyzer
    ([Dphls_analysis]) reports them all under the same check names. *)

val validate : 'p t -> 'p -> unit
(** Raise [Invalid_argument] on the first of {!structural_findings},
    if any. *)

val has_traceback : 'p t -> 'p -> bool

val datapath : 'p t -> 'p -> (Datapath.cell * Datapath.bindings) option
(** The IR cell and bindings at these parameters; [None] for a
    [Closure] kernel. *)

val flat_pe : 'p t -> 'p -> Pe.flat
(** The evaluator the engines actually run: the compiled IR program
    ({!Datapath.flat}), or a [Closure] behind the {!Pe.flat_of_f}
    adapter. Each call returns a fresh evaluator with its own scratch
    (engines call it once per run, so per-domain scratch stays
    per-domain). *)

val pe : 'p t -> 'p -> Pe.f
(** The boxed view: the {!Datapath.eval} interpreter over the IR, or the
    [Closure] itself. Slow; for one-off evaluations and differentials.
    Many-call probes should wrap {!flat_pe} instead. *)

val boxed : 'p t -> 'p t
(** The kernel as a [Closure] over its boxed view, so engines run the
    interpreter instead of the compiled program — the reference side of
    the compiled-vs-interpreted differentials ([dphls cosim], vectors
    replay, [bench --pe-only]). The result has no {!datapath}. *)

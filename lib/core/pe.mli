(** The processing-element interface — the DP-HLS [PE_func] contract.

    A kernel's recurrence is a pure function from the three neighbouring
    cells' layer scores plus the local query/reference characters to this
    cell's layer scores and traceback pointer, exactly the paper's
    Listing 5/6 signature ([dp_mem_up]/[dp_mem_diag]/[dp_mem_left],
    [lc_qry_val]/[lc_ref_val] in; [wt_scr]/[wt_tbp] out).

    Two calling conventions exist:
    - the boxed {!f}: a pure [input -> output] closure that allocates its
      output record — what the IR interpreter yields, and what a user
      kernel author may write by hand ([Kernel.Closure]);
    - the flat {!flat}: an [buffers -> unit] evaluator that reads its
      inputs from and writes its results into a caller-owned {!buffers}
      record, allocating nothing. The engines run every PE through the
      flat contract (adapting boxed closures with {!flat_of_f}), which is
      what keeps the wavefront hot path allocation-free. *)

type input = {
  up : Types.score array;    (** layer scores of cell (row-1, col) *)
  diag : Types.score array;  (** layer scores of cell (row-1, col-1) *)
  left : Types.score array;  (** layer scores of cell (row, col-1) *)
  qry : Types.ch;            (** [lc_qry_val]: query character at [row] *)
  rf : Types.ch;             (** [lc_ref_val]: reference character at [col] *)
  row : int;                 (** global row (query index) of this cell *)
  col : int;                 (** global column (reference index) *)
}

type output = {
  scores : Types.score array;  (** [wt_scr] per layer; layer 0 is primary *)
  tb : int;                    (** [wt_tbp]: encoded traceback pointer *)
}

type f = input -> output
(** The user-supplied recurrence, already closed over its scoring
    parameters. Must be pure: both the golden and the systolic engine call
    it, in different orders, and results must agree bit-for-bit. *)

(** The flat PE register file. The engine points the input fields at its
    own planes/scratch rows before each evaluation (reference swaps, no
    copying) and the [b_scores] field at the destination plane row; the
    evaluator writes its layer scores there and the packed pointer into
    [b_tb]. Input arrays must be treated as read-only by the evaluator,
    and [b_scores] is guaranteed not to alias any input array. *)
type buffers = {
  mutable b_up : Types.score array;
  mutable b_diag : Types.score array;
  mutable b_left : Types.score array;
  mutable b_qry : Types.ch;
  mutable b_rf : Types.ch;
  mutable b_row : int;
  mutable b_col : int;
  mutable b_scores : Types.score array;  (** written by the evaluator *)
  mutable b_tb : int;                    (** written by the evaluator *)
}

type flat = buffers -> unit
(** Evaluate one cell from/into the caller's register file. Evaluators
    must not retain the buffer or any array it points to. *)

val create_buffers : n_layers:int -> buffers
(** Fresh register file with [n_layers]-sized score arrays and empty
    character slots. Raises [Invalid_argument] when [n_layers < 1]. *)

val flat_of_f : f -> flat
(** Adapt a boxed PE to the flat contract (one [input] record, one
    [output] record and one score-array copy per call — the price of the
    boxed closure). Raises [Invalid_argument] if the closure returns a
    layer count different from the buffer's. *)

val f_of_flat : n_layers:int -> flat -> f
(** Adapt a flat evaluator back to a pure boxed closure (fresh buffers
    per call). Used by code that wants one-off PE evaluations without
    managing buffers, e.g. the width analyzer's corner probing. *)

(** Symbolic datapath descriptions of the catalog kernels, by id.

    Each is the kernel's own [Kernel.Ir] field at its default
    parameters — the single source the engines compile, the RTL emitter
    lowers and the checker analyses. The test suite checks its
    interpreter ({!Dphls_core.Datapath.eval}) against the compiled
    program, and its operator counts against the kernel's declared
    resource traits. *)

val cell_for : int -> Dphls_core.Datapath.cell * Dphls_core.Datapath.bindings
(** Datapath and default-parameter bindings for a catalog kernel id
    ({!Catalog.ids}: Table 1 ids 1-15, the adaptive-band variants 16-18,
    whose PEs are those of 11-13, and the unit-cost edit-distance kernel
    19): {!Dphls_core.Kernel.datapath} of the catalog entry. Raises
    [Not_found] for unknown ids. *)

val select_first_best :
  objective:Dphls_util.Score.objective ->
  (Dphls_core.Datapath.expr * int) list ->
  Dphls_core.Datapath.expr
(** Expression computing the tag of the first candidate attaining the
    optimum — the exact tie-break of [Kdefs.best_of]. *)

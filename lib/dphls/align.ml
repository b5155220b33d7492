open Dphls_core
module Engines = Dphls_engines.Engines
module Engine_intf = Dphls_engines.Engine_intf

type engine = Golden | Systolic of int | Bitpar | Auto of int

type alignment = {
  score : int;
  cigar : string;
  identity : float;
  query_span : int * int;
  reference_span : int * int;
  view : string;
  device_cycles : int option;
}

let view_of_result (w : Workload.t) result cycles ~decode =
  let query = w.Workload.query and reference = w.Workload.reference in
  match Alignment_view.first_consumed result with
  | None ->
    {
      score = result.Result.score;
      cigar = "";
      identity = 0.0;
      query_span = (0, 0);
      reference_span = (0, 0);
      view = "";
      device_cycles = cycles;
    }
  | Some (row0, col0) ->
    let stats =
      Alignment_view.stats ~query ~reference ~start_row:row0 ~start_col:col0
        result.Result.path
    in
    let last =
      match result.Result.start_cell with Some c -> c | None -> assert false
    in
    {
      score = result.Result.score;
      cigar = Result.cigar result;
      identity = stats.Alignment_view.identity;
      query_span = (row0, last.Types.row + 1);
      reference_span = (col0, last.Types.col + 1);
      view =
        Alignment_view.render ~decode ~query ~reference ~start_row:row0
          ~start_col:col0 result.Result.path;
      device_cycles = cycles;
    }

let cycles_of_stats stats =
  Option.map
    (fun s -> s.Dphls_systolic.Engine.cycles.Dphls_systolic.Engine.total)
    stats

let run_via (type p) (e : Engine_intf.t) cfg ~overlap ?metrics ?tracer
    (kernel : p Kernel.t) (params : p) (ws : Workload.t array) ~decode =
  let (module E : Engine_intf.S) = e in
  let results, batch =
    E.run_batch ~overlap ?metrics ?tracer cfg kernel params ws
  in
  ( Array.mapi
      (fun i (r, stats) ->
        view_of_result ws.(i) r (cycles_of_stats stats) ~decode)
      results,
    batch )

let run_kernel_batch (type p) ?band ?(overlap = false)
    ?metrics ?tracer ~engine (kernel : p Kernel.t) (params : p)
    (ws : Workload.t array) ~decode =
  let kernel =
    match band with
    | Some b -> { kernel with Kernel.banding = Some b }
    | None -> kernel
  in
  let go e cfg = run_via e cfg ~overlap ?metrics ?tracer kernel params ws ~decode in
  match engine with
  | Golden -> go Engines.reference (Engine_intf.config ~n_pe:1 ())
  | Systolic n_pe -> go Engines.systolic (Engine_intf.config ~n_pe ())
  | Bitpar -> go Engines.bitpar (Engine_intf.config ~n_pe:1 ())
  | Auto n_pe ->
    let cfg = Engine_intf.config ~n_pe () in
    (* One observable dispatch decision per workload. Selections for a
       single kernel+params are uniform in practice, so the whole array
       still runs as one staged batch (keeping overlap accounting);
       a mixed batch would fall back to per-workload singletons. *)
    let choices =
      Array.map
        (fun w ->
          let qry_len, ref_len = Workload.sizes w in
          Engines.select ?metrics ~qry_len ~ref_len kernel params)
        ws
    in
    if Array.length ws = 0 then go Engines.systolic cfg
    else if Array.for_all (fun e -> e == choices.(0)) choices then
      go choices.(0) cfg
    else
      ( Array.mapi
          (fun i w ->
            (fst
               (run_via choices.(i) cfg ~overlap:false ?metrics ?tracer kernel
                  params [| w |] ~decode)).(0))
          ws,
        None )

let run_kernel ?band ?metrics ?tracer ~engine kernel params w ~decode
    =
  (fst
     (run_kernel_batch ?band ?metrics ?tracer ~engine kernel params
        [| w |] ~decode)).(0)

let dna_workload ~query ~reference =
  Workload.of_bases
    ~query:(Dphls_alphabet.Dna.of_string query)
    ~reference:(Dphls_alphabet.Dna.of_string reference)

let dna_decode c = Dphls_alphabet.Dna.decode c.(0)
let protein_decode c = Dphls_alphabet.Protein.decode c.(0)

let global ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K01_global_linear.kernel
    Dphls_kernels.K01_global_linear.default
    (dna_workload ~query ~reference)
    ~decode:dna_decode

let global_affine ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K02_global_affine.kernel
    Dphls_kernels.K02_global_affine.default
    (dna_workload ~query ~reference)
    ~decode:dna_decode

let local ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K03_local_linear.kernel
    Dphls_kernels.K03_local_linear.default
    (dna_workload ~query ~reference)
    ~decode:dna_decode

let semi_global ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K07_semi_global.kernel
    Dphls_kernels.K07_semi_global.default
    (dna_workload ~query ~reference)
    ~decode:dna_decode

let protein_workload ~query ~reference =
  Workload.of_bases
    ~query:(Dphls_alphabet.Protein.of_string query)
    ~reference:(Dphls_alphabet.Protein.of_string reference)

let protein_local ?band ?metrics ?tracer ?(engine = Golden) ~query
    ~reference () =
  run_kernel ?band ?metrics ?tracer ~engine Dphls_kernels.K15_protein_local.kernel
    Dphls_kernels.K15_protein_local.default
    (protein_workload ~query ~reference)
    ~decode:protein_decode

(* Batched variants of the five entry points: one staged-engine batch per
   call, so [?overlap] can hide alignment i+1's prologue under alignment
   i's compute (systolic engine only — see Engine.run_batch). *)

let dna_workloads pairs =
  Array.map (fun (query, reference) -> dna_workload ~query ~reference) pairs

let global_batch ?band ?overlap ?metrics ?tracer ?(engine = Golden)
    pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K01_global_linear.kernel
    Dphls_kernels.K01_global_linear.default (dna_workloads pairs)
    ~decode:dna_decode

let global_affine_batch ?band ?overlap ?metrics ?tracer
    ?(engine = Golden) pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K02_global_affine.kernel
    Dphls_kernels.K02_global_affine.default (dna_workloads pairs)
    ~decode:dna_decode

let local_batch ?band ?overlap ?metrics ?tracer ?(engine = Golden)
    pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K03_local_linear.kernel Dphls_kernels.K03_local_linear.default
    (dna_workloads pairs) ~decode:dna_decode

let semi_global_batch ?band ?overlap ?metrics ?tracer
    ?(engine = Golden) pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K07_semi_global.kernel Dphls_kernels.K07_semi_global.default
    (dna_workloads pairs) ~decode:dna_decode

let protein_local_batch ?band ?overlap ?metrics ?tracer
    ?(engine = Golden) pairs =
  run_kernel_batch ?band ?overlap ?metrics ?tracer ~engine
    Dphls_kernels.K15_protein_local.kernel
    Dphls_kernels.K15_protein_local.default
    (Array.map
       (fun (query, reference) -> protein_workload ~query ~reference)
       pairs)
    ~decode:protein_decode

(* Per-layer measurements for the traced run, each taken from outside by
   timing calls into the layer's public functions on a seeded sample of
   the workload, in one domain.

   L0 datapath: Kernel.flat_pe (the compiled Datapath.flat program)
   driven cell by cell. L1 engine and L2 align: Engines.select plus the
   chosen backend's run_batch with prologue overlap, once with counters
   only (timed) and once with the engine's own phase tracer. *)

open Dphls_core
module Engines = Dphls_engines.Engines
module Engine_intf = Dphls_engines.Engine_intf
module Engine = Dphls_systolic.Engine
module Metrics = Dphls_obs.Metrics
module Counter = Dphls_obs.Counter
module Tracer = Dphls_obs.Tracer
module Stats = Perfbench_lib.Stats

let cells_per_datapath_run = 1_000_000

(* ns per cell and instructions per cell of one kernel's compiled PE,
   fed the sample's characters and a rotating set of neighbour scores *)
let datapath (Registry.Packed (k, p)) (ws : Workload.t array) =
  let cell, bindings = Dphls_kernels.Datapaths.cell_for k.Kernel.id in
  let insts = Datapath.program_insts (Datapath.compile cell bindings) in
  let pe = Kernel.flat_pe k p in
  let n_layers = k.Kernel.n_layers in
  let buf = Pe.create_buffers ~n_layers in
  let planes = Array.init 7 (fun i -> Array.make n_layers (i * 3)) in
  let out = Array.make n_layers 0 in
  let qs = Array.concat (Array.to_list (Array.map (fun w -> w.Workload.query) ws)) in
  let rs =
    Array.concat (Array.to_list (Array.map (fun w -> w.Workload.reference) ws))
  in
  buf.Pe.b_scores <- out;
  let t0 = Unix.gettimeofday () in
  for i = 0 to cells_per_datapath_run - 1 do
    buf.Pe.b_up <- planes.(i mod 7);
    buf.Pe.b_diag <- planes.((i + 2) mod 7);
    buf.Pe.b_left <- planes.((i + 5) mod 7);
    buf.Pe.b_qry <- qs.(i mod Array.length qs);
    buf.Pe.b_rf <- rs.((i / 3) mod Array.length rs);
    buf.Pe.b_row <- 1 + (i land 255);
    buf.Pe.b_col <- 1 + ((i lsr 8) land 255);
    pe buf
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (dt *. 1e9 /. float_of_int cells_per_datapath_run, float_of_int insts)

type engine_sample = {
  alignments : int;
  wall_s : float;  (** counters on, tracer off *)
  counters : Metrics.t;
  stats : Engine.stats list;  (** systolic-routed alignments only *)
  spans : Stats.span list;  (** tracer run: bench span + engine phases *)
}

(* Run [groups] — (kernel, workloads) — through auto dispatch; the
   traced run's spans are also written to [trace_file] for Perfetto. *)
let engine_sample ~trace_file groups =
  let run_all ~metrics ~tracer =
    List.concat_map
      (fun (Registry.Packed (k, p), ws) ->
        let e =
          let qry_len, ref_len = Workload.sizes ws.(0) in
          Engines.select ~metrics ~qry_len ~ref_len k p
        in
        (* the remaining dispatches of the group, counted like Align's *)
        Array.iteri
          (fun i w ->
            if i > 0 then
              let qry_len, ref_len = Workload.sizes w in
              ignore (Engines.select ~metrics ~qry_len ~ref_len k p))
          ws;
        let (module E : Engine_intf.S) = e in
        let t_call = Tracer.now tracer in
        let results, _ =
          E.run_batch ~overlap:true ~metrics ~tracer
            (Engine_intf.config ~n_pe:Perfbench_lib.Batchwl.n_pe ())
            k p ws
        in
        Tracer.add_span tracer ~cat:"bench" ~t0:t_call ~t1:(Tracer.now tracer)
          "bench.run_batch";
        List.filter_map snd (Array.to_list results))
      groups
  in
  let counters = Metrics.create () in
  let t0 = Unix.gettimeofday () in
  let stats = run_all ~metrics:counters ~tracer:Tracer.disabled in
  let wall_s = Unix.gettimeofday () -. t0 in
  let tracer = Tracer.create () in
  ignore (run_all ~metrics:Metrics.disabled ~tracer);
  Dphls_obs.Chrome.write_file trace_file ~process_name:"perfbench" tracer;
  let spans =
    List.map
      (fun (s : Tracer.span) ->
        { Stats.name = s.Tracer.span_name; tid = s.tid; t0 = s.t0; t1 = s.t1 })
      (Tracer.spans tracer)
  in
  {
    alignments = List.fold_left (fun a (_, ws) -> a + Array.length ws) 0 groups;
    wall_s;
    counters;
    stats;
    spans;
  }

(* The L0-L2 per-layer metrics of one sample, as (name, value, unit). *)
let metrics ~trace_file ~datapath_kernels groups =
  let dp =
    List.map
      (fun packed ->
        let ws =
          List.concat_map
            (fun (Registry.Packed (k, _), ws) ->
              match packed with
              | Registry.Packed (k', _) when k'.Kernel.id = k.Kernel.id ->
                Array.to_list ws
              | _ -> [])
            groups
        in
        datapath packed (Array.of_list ws))
      datapath_kernels
  in
  let mean f = List.fold_left (fun a x -> a +. f x) 0.0 dp /. float_of_int (List.length dp) in
  let dp_ns = mean fst and dp_insts = mean snd in
  let s = engine_sample ~trace_file groups in
  let get c = float_of_int (Metrics.get s.counters c) in
  let cells = get Counter.Cells_evaluated in
  let engine_ns = s.wall_s *. 1e9 /. Float.max 1.0 cells in
  let sum f = float_of_int (List.fold_left (fun a st -> a + f st) 0 s.stats) in
  let n = float_of_int s.alignments in
  let per_aln f = sum f /. n in
  let cyc f = per_aln (fun st -> f st.Engine.cycles) in
  let total_cycles = sum (fun st -> st.Engine.cycles.Engine.total) in
  let self name = Stats.self_time_by_name s.spans name *. 1e3 /. n in
  let hits = get Counter.Engine_fastpath_hits
  and falls = get Counter.Engine_fastpath_fallbacks in
  [
    ("datapath.ns_per_cell", dp_ns, "ns");
    ("datapath.insts_per_cell", dp_insts, "count");
    ("engine.ns_per_cell", engine_ns, "ns");
    ("engine.overhead_ratio", engine_ns /. dp_ns, "ratio");
    ("engine.cells_evaluated", cells, "count");
    ("engine.cells_band_skipped", get Counter.Cells_band_skipped, "count");
    ( "engine.utilization",
      sum (fun st -> st.Engine.pe_fires) /. Float.max 1.0 (sum (fun st -> st.Engine.pe_slots)),
      "ratio" );
    ("engine.tb_words", sum (fun st -> st.Engine.tb_words), "count");
    ("engine.fastpath_hit_ratio", hits /. Float.max 1.0 (hits +. falls), "ratio");
    ("align.prologue_cycles", cyc (fun c -> c.Engine.prologue), "cycles");
    ("align.compute_cycles", cyc (fun c -> c.Engine.compute), "cycles");
    ("align.reduction_cycles", cyc (fun c -> c.Engine.reduction), "cycles");
    ("align.traceback_cycles", cyc (fun c -> c.Engine.traceback), "cycles");
    ("align.fill_cycles", cyc (fun c -> c.Engine.fill), "cycles");
    ("align.prologue_ms", self "prologue", "ms");
    ("align.compute_ms", self "compute", "ms");
    ("align.reduction_ms", self "reduction", "ms");
    ("align.traceback_ms", self "traceback", "ms");
    ( "align.host_ns_per_modeled_cycle",
      (if total_cycles > 0.0 then s.wall_s *. 1e9 /. total_cycles else 0.0),
      "ns" );
  ]

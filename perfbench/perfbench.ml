(* perfbench: the repository's end-to-end and per-layer benchmark.

     perfbench --workload short-reads|long-reads|serve-zipf --seed N
               --seconds S --trace 0|1 --dphls PATH

   With --trace 0 it measures the end-to-end metrics with every sink
   disabled; with --trace 1 it measures them again with the sinks on,
   reports the difference as tracing overhead, and adds the per-layer
   metrics. Every output is checked; the last stdout line is one JSON
   object {correct, attempted, failed, metrics}. A readable report goes
   to stderr. Run it through perfbench/run.sh, which builds first. *)

module Inputs = Perfbench_lib.Inputs
module Stats = Perfbench_lib.Stats
module Expected = Perfbench_lib.Expected
module Batchwl = Perfbench_lib.Batchwl
module Anchor = Perfbench_lib.Anchor
module Rng = Dphls_util.Rng
module Metrics = Dphls_obs.Metrics
module Counter = Dphls_obs.Counter
module Tracer = Dphls_obs.Tracer
module Registry = Dphls_core.Registry

let now = Unix.gettimeofday
let device_hz = 250e6  (* the paper's kernel clock *)

(* Overlap slices per job for the modelled-cycle totals. Batch cuts a job
   into one slice per worker and each slice's first prologue stays
   unhidden, so the totals are taken from a schedule of this fixed width
   (the canary's) rather than from the host's core count. *)
let device_slices = 2

let out_dir = ".perfbench"

type metric = string * float * string  (* name, value, unit *)

(* One measurement of a workload. [e2e] is every end-to-end metric;
   [layers] the per-layer metrics this measurement could see. *)
type outcome = {
  e2e : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  notes : string list;  (** failures and sample counts, for stderr *)
}

let self_hwm_mb () = float_of_int (Servewl.proc_hwm_kb (Unix.getpid ())) /. 1024.0

let median_of xs = Stats.median (Array.of_list xs)

(* Set up [setup_reps] times, each between two anchor runs, and keep the
   median time both as measured and scaled to the anchor's reference
   speed: set-up is single-threaded work that tracks the machine's speed
   as the anchor does. Returns the last set-up's value, the raw median
   and the scaled median. *)
let setup_reps = 15

let timed_setup f =
  let last = ref None in
  let times =
    List.init setup_reps (fun _ ->
        (* start each from a collected heap that holds no earlier set-up's
           value, so neither its garbage nor its result is charged to the
           next or to the peak RSS *)
        last := None;
        Gc.full_major ();
        let before = Anchor.time () in
        let t0 = now () in
        last := Some (f ());
        let dt = now () -. t0 in
        let anchor_s = (before +. Anchor.time ()) /. 2.0 in
        (dt, Anchor.normalize ~anchor_s dt))
  in
  ( Option.get !last,
    median_of (List.map fst times),
    median_of (List.map snd times) )

(* ---- short-reads, long-reads ---- *)

let batch_measure (spec : Batchwl.spec) ~seed ~seconds ~traced =
  let workers = Domain.recommended_domain_count () in
  let pairs, raw_setup_s, setup_s =
    timed_setup (fun () ->
        let pairs = spec.Batchwl.pairs seed in
        let (_compiled : Dphls_core.Pe.flat) =
          Dphls_core.Kernel.flat_pe (Batchwl.kernel spec)
            Dphls_kernels.K02_global_affine.default
        in
        Dphls_host.Pool.shutdown (Dphls_host.Pool.create ~workers ());
        pairs)
  in
  let n = Array.length pairs in
  let metrics = if traced then Metrics.create () else Metrics.disabled in
  let tracer = if traced then Tracer.create () else Tracer.disabled in
  let attempted = ref 0 and failed = ref 0 and notes = ref [] in
  let fail k msg =
    failed := !failed + k;
    notes := msg :: !notes
  in
  (* throughput: the input set in jobs of job_size pairs, one
     align_all_overlap_report call each, cycled for half the time. The
     rate is pairs per second of job time over all the jobs, each pair
     weighted by its share of the work (cells in the band) so that a
     cycle cut short at a job of longer reads does not read as slower.
     Each job's time is also scaled to the anchor's reference speed by
     anchor runs (median of three) just before and after it, as the
     latencies are: on 2-vCPU trials this cut the run-to-run spread of
     short-reads' throughput by half and left long-reads' unchanged. *)
  let jobs = (n + spec.Batchwl.job_size - 1) / spec.Batchwl.job_size in
  let work =
    Array.map
      (fun (q, r) ->
        float_of_int
          (Dphls_core.Banding.cells_in_band spec.Batchwl.band
             ~qry_len:(String.length q) ~ref_len:(String.length r)))
      pairs
  in
  let mean_work = Array.fold_left ( +. ) 0.0 work /. float_of_int n in
  let job k =
    let lo = k * spec.Batchwl.job_size in
    (lo, Array.sub pairs lo (min spec.Batchwl.job_size (n - lo)))
  in
  let budget = seconds /. 2.0 in
  let t_start = now () in
  let done_work = ref 0.0 and job_s = ref 0.0 and job_ref_s = ref 0.0 in
  let last_dt = ref 0.0 and runs = ref 0 in
  let outs = Array.make n (0, "") and digests = Array.make jobs "" in
  let overlapped = ref 0 and seq = ref 0 and hidden = ref 0 in
  let host = ref [] and rss_mb = ref 0.0 in
  while !runs < jobs || now () -. t_start +. !last_dt <= budget do
    let k = !runs mod jobs in
    let lo, sub = job k in
    let m = Array.length sub in
    (* each job starts from a collected heap, as a job in its own
       process would; without this, garbage from earlier jobs decides
       the peak RSS *)
    Gc.full_major ();
    let before = Anchor.time3 () in
    let t0 = now () and tr0 = Tracer.now tracer in
    let results, pool, b = Batchwl.run ~metrics ~tracer ~workers spec sub in
    let dt = now () -. t0 in
    let anchor_s = (before +. Anchor.time3 ()) /. 2.0 in
    Tracer.add_span tracer ~cat:"bench" ~t0:tr0 ~t1:(Tracer.now tracer)
      "bench.batch_job";
    last_dt := dt;
    let job_work = Array.fold_left ( +. ) 0.0 (Array.sub work lo m) in
    done_work := !done_work +. (job_work /. mean_work);
    job_s := !job_s +. dt;
    job_ref_s := !job_ref_s +. Anchor.normalize ~anchor_s dt;
    attempted := !attempted + m;
    let o = Batchwl.outputs results in
    let d = Expected.digest o in
    if !runs < jobs then begin
      let b =
        if workers = device_slices then b
        else
          let _, _, b = Batchwl.run ~workers:device_slices spec sub in
          b
      in
      List.iteri (fun i x -> outs.(lo + i) <- x) o;
      digests.(k) <- d;
      overlapped := !overlapped + b.Dphls_systolic.Engine.overlapped_cycles;
      seq := !seq + b.Dphls_systolic.Engine.seq_cycles;
      hidden := !hidden + b.Dphls_systolic.Engine.hidden_cycles
    end
    else if d <> digests.(k) then
      fail m (Printf.sprintf "job %d: outputs differ from its first run" k);
    host := pool :: !host;
    (* the peak of one job from a collected heap; later jobs only add
       garbage-collector timing to it *)
    if !runs = 0 then rss_mb := self_hwm_mb ();
    incr runs
  done;
  (* latency: single pairs on an idle host for the other half, each timed
     once between two anchor runs that measure the machine's current
     speed. Every sample counts, garbage-collector work included. *)
  let order = Array.init n Fun.id in
  Rng.shuffle (Rng.create (seed + 7)) order;
  let lat = ref [] and lat_ref = ref [] and anchors = ref [] and i = ref 0 in
  let t_lat = now () in
  while !i = 0 || now () -. t_lat < seconds /. 2.0 do
    (* cycling through the seeded order: long-read sets are shorter than
       the samples a percentile needs *)
    let j = order.(!i mod n) in
    let before = Anchor.time () in
    let t0 = now () in
    let a = Batchwl.align_one spec pairs.(j) in
    let dt = now () -. t0 in
    let anchor_s = (before +. Anchor.time ()) /. 2.0 in
    anchors := anchor_s :: !anchors;
    lat := (dt *. 1e3) :: !lat;
    lat_ref := (Anchor.normalize ~anchor_s dt *. 1e3) :: !lat_ref;
    incr attempted;
    if (a.Dphls.Align.score, a.cigar) <> outs.(j) then
      fail 1 (Printf.sprintf "pair %d: single-pair result differs from batch" j);
    incr i
  done;
  (* checks: a seeded sample on the reference engine, and the canary *)
  for s = 0 to min spec.Batchwl.check_sample n - 1 do
    let j = order.(s) in
    incr attempted;
    if Batchwl.reference spec pairs.(j) <> outs.(j) then
      fail 1 (Printf.sprintf "pair %d: differs from the reference engine" j)
  done;
  let c = Expected.load_canary spec.Batchwl.name in
  let digest, seq_cycles, overlapped_cycles = Batchwl.canary spec c in
  attempted := !attempted + c.Expected.pairs;
  (match Expected.canary_mismatches c ~digest ~seq_cycles ~overlapped_cycles with
  | [] -> ()
  | ms -> fail c.Expected.pairs ("canary: " ^ String.concat "; " ms));
  let lat = Array.of_list !lat and lat_ref = Array.of_list !lat_ref in
  let aln_per_s = !done_work /. !job_ref_s in
  let layers =
    let busy =
      List.map
        (fun (p : Dphls_host.Pool.stats) ->
          let w = Array.map float_of_int p.Dphls_host.Pool.worker_busy_ns in
          let mean = Array.fold_left ( +. ) 0.0 w /. float_of_int (Array.length w) in
          ( p.Dphls_host.Pool.report.Dphls_host.Scheduler.block_utilization,
            Array.fold_left Float.max 0.0 w /. Float.max 1.0 mean ))
        !host
    in
    let per_job c = float_of_int (Metrics.get metrics c) /. float_of_int !runs in
    [
      ("host.busy_ratio", median_of (List.map fst busy), "ratio");
      ("host.imbalance", median_of (List.map snd busy), "ratio");
      ("host.pool_tasks", per_job Counter.Pool_tasks, "count");
      ("host.pool_steals", per_job Counter.Pool_steals, "count");
      ("host.pool_idle_waits", per_job Counter.Pool_idle_waits, "count");
      ("host.hidden_cycles", float_of_int !hidden, "cycles");
      ("host.overlap_ratio", float_of_int !hidden /. float_of_int !seq, "ratio");
      ("raw.setup_s", raw_setup_s, "s");
      ("raw.aln_per_s", !done_work /. !job_s, "1/s");
      ("raw.p50_ms", Stats.percentile lat 50.0, "ms");
      ("raw.p99_ms", Stats.percentile lat 99.0, "ms");
      ("anchor.ms", median_of !anchors *. 1e3, "ms");
    ]
  in
  {
    e2e =
      [
        ("setup_s", setup_s, "s");
        ("aln_per_s", aln_per_s, "1/s");
        ( "device_aln_per_s",
          float_of_int n /. (float_of_int !overlapped /. device_hz),
          "1/s" );
        ("rss_mb", !rss_mb, "MB");
        ("p50_ms", Stats.percentile lat_ref 50.0, "ms");
        ("p99_ms", Stats.percentile lat_ref 99.0, "ms");
      ];
    layers;
    attempted = !attempted;
    failed = !failed;
    notes =
      Printf.sprintf
        "%d jobs of up to %d pairs over %d pairs; latency over %d single \
         pairs (p50 %.3f ms, p99 %.3f ms before scaling to the anchor's \
         reference speed); %d reference checks; canary of %d pairs"
        !runs spec.Batchwl.job_size n (Array.length lat)
        (Stats.percentile lat 50.0) (Stats.percentile lat 99.0)
        (min spec.Batchwl.check_sample n)
        c.Expected.pairs
      :: List.rev !notes;
  }

(* ---- serve-zipf ---- *)

(* Offered rates, lowest to highest. Each rate phase is one or more
   sessions against a fresh child (cold cache); the middle rate, whose
   p50/p99 are the end-to-end latency metrics, runs five sessions so
   its sample holds thousands of requests while each session's cache
   hit ratio stays near a quarter, well clear of the 50% at which the
   median would jump from a miss's wait to a hit's. At the middle rate
   the one-worker service is about 40% busy on a 2-vCPU host: at 200
   req/s it was 60% busy, and its queueing delay amplified the host's
   speed drift into a 0.24 run-to-run spread of p50. *)
let rates = [ (50.0, 1); (120.0, 5); (400.0, 1) ]
let middle_rate = 120.0
let sessions = List.fold_left (fun a (_, k) -> a + k) 0 rates
let p99_limit_ms = 100.0
let serve_check_sample = 24

let serve_verify universe (phases : Servewl.session list) ~seed =
  let failed = ref 0 and attempted = ref 0 and notes = ref [] in
  let fail msg =
    incr failed;
    notes := msg :: !notes
  in
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun (p : Servewl.session) ->
      attempted := !attempted + p.Servewl.sent;
      Array.iteri
        (fun j r ->
          match r with
          | None -> fail (Printf.sprintf "request %d: no reply" j)
          | Some { Servewl.ok = false; _ } ->
            fail (Printf.sprintf "request %d: error reply" j)
          | Some r -> (
            let k = p.Servewl.keys.(j) in
            match Hashtbl.find_opt seen k with
            | None -> Hashtbl.add seen k r
            | Some r0 ->
              if (r0.Servewl.score, r0.cigar, r0.cycles)
                 <> (r.Servewl.score, r.cigar, r.cycles)
              then fail (Printf.sprintf "key %d: replies disagree" k)))
        p.Servewl.replies)
    phases;
  (* a seeded sample of answered keys, recomputed in process *)
  let keys = Hashtbl.fold (fun k r acc -> (k, r) :: acc) seen [] in
  let keys = Array.of_list (List.sort compare keys) in
  Rng.shuffle (Rng.create (seed + 11)) keys;
  Array.iteri
    (fun i (k, (r : Servewl.reply)) ->
      if i < serve_check_sample then begin
        incr attempted;
        let key = universe.(k) in
        let query = key.Inputs.qry and reference = key.Inputs.ref_seq in
        let expect =
          match key.Inputs.kernel with
          | 2 | 3 ->
            let a =
              (if key.Inputs.kernel = 2 then Dphls.Align.global_affine
               else Dphls.Align.local)
                ~engine:(Dphls.Align.Systolic Batchwl.n_pe) ~query ~reference ()
            in
            (a.Dphls.Align.score, a.cigar, a.device_cycles)
          | id ->
            let (Registry.Packed (kn, pr)) =
              (Dphls_kernels.Catalog.find id).Dphls_kernels.Catalog.packed
            in
            let (module R : Dphls_engines.Engine_intf.S) =
              Dphls_engines.Engines.reference
            in
            let res, _ =
              R.run (Dphls_engines.Engine_intf.config ~n_pe:1 ()) kn pr
                (Batchwl.workload (query, reference))
            in
            (res.Dphls_core.Result.score, "", None)
        in
        if expect <> (r.Servewl.score, r.cigar, r.cycles) then
          fail
            (Printf.sprintf "key %d (kernel #%d): reply differs from in-process"
               k key.Inputs.kernel)
      end)
    keys;
  (!attempted, !failed, List.rev !notes)

let summary_num (p : Servewl.session) k =
  match p.Servewl.summary with
  | Some j -> (
    match Dphls_analysis.Json.member k j with
    | Some (Dphls_analysis.Json.Num f) -> f
    | _ -> 0.0)
  | None -> 0.0

let ok_count (p : Servewl.session) =
  Array.fold_left
    (fun a r -> match r with Some { Servewl.ok = true; _ } -> a + 1 | _ -> a)
    0 p.Servewl.replies

let rate_label r = Printf.sprintf "r%d" (int_of_float r)

(* admit self time per request and compute time per batch, from the
   child's own --trace spans *)
let serve_trace_layers path =
  let events =
    try Dphls_obs.Chrome.parse (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error _ | Failure _ -> []
  in
  (try Sys.remove path with Sys_error _ -> ());
  (* the service's own admit and compute spans; the engine's phase spans
     share the tracer (one named "compute" too) and request spans
     overlap across admissions, so both are left out *)
  let spans =
    List.filter_map
      (fun (e : Dphls_obs.Chrome.event) ->
        if e.cat = "serve" && (e.name = "admit" || e.name = "compute") then
          Some
            { Stats.name = e.name; tid = e.tid; t0 = e.ts /. 1e6;
              t1 = (e.ts +. e.dur) /. 1e6 }
        else None)
      events
  in
  let count name = List.length (List.filter (fun s -> s.Stats.name = name) spans) in
  let per name =
    Stats.self_time_by_name spans name *. 1e3 /. float_of_int (max 1 (count name))
  in
  let compute_ms =
    List.fold_left
      (fun a s -> if s.Stats.name = "compute" then a +. (s.t1 -. s.t0) else a)
      0.0 spans
    *. 1e3
    /. float_of_int (max 1 (count "compute"))
  in
  [ ("serve.admit_ms", per "admit", "ms"); ("serve.compute_ms", compute_ms, "ms") ]

let parse_ns lines =
  let n = Array.length lines in
  let t0 = now () in
  let reps = ref 0 in
  while !reps = 0 || now () -. t0 < 0.2 do
    Array.iter (fun l -> ignore (Dphls_serve.Proto.parse_request l)) lines;
    incr reps
  done;
  (now () -. t0) *. 1e9 /. float_of_int (n * !reps)

let serve_measure ~dphls ~seed ~seconds ~traced =
  let universe, raw_gen_s, gen_s =
    timed_setup (fun () -> Inputs.serve_universe seed)
  in
  let session_s = seconds /. float_of_int sessions in
  let counter = ref 0 in
  (* one fresh child per session; only the first middle-rate session
     runs with the child's own tracer *)
  let session ~rate ~traced_session =
    let i = !counter in
    incr counter;
    let trace_path =
      if traced_session then
        Some (Printf.sprintf "%s/serve-%d.trace.json" out_dir seed)
      else None
    in
    let phase =
      Servewl.run_session ~dphls ~universe ~rate ~trace_path
        ~keys:(Inputs.phase_keys ~seed ~phase:i (int_of_float (rate *. session_s)))
    in
    (phase, Option.map serve_trace_layers trace_path)
  in
  let by_rate =
    List.map
      (fun (r, k) ->
        ( r,
          List.init k (fun j ->
              session ~rate:r
                ~traced_session:(traced && r = middle_rate && j = 0)) ))
      rates
  in
  let phases = List.concat_map (fun (_, l) -> List.map fst l) by_rate in
  let attempted, failed, notes = serve_verify universe phases ~seed in
  let pooled_lat ss = Array.concat (List.map (fun p -> p.Servewl.lat_ms) ss) in
  let pct lat q = if Array.length lat = 0 then 0.0 else Stats.percentile lat q in
  let sum_num ss k = List.fold_left (fun a p -> a +. summary_num p k) 0.0 ss in
  let oks ss = List.fold_left (fun a p -> a + ok_count p) 0 ss in
  let sent ss = List.fold_left (fun a p -> a + p.Servewl.sent) 0 ss in
  let mid_sessions = List.map fst (List.assoc middle_rate by_rate) in
  let mid_lat = pooled_lat mid_sessions in
  let cyc_n, cyc_sum =
    List.fold_left
      (fun acc (p : Servewl.session) ->
        Array.fold_left
          (fun (n, s) r ->
            match r with
            | Some { Servewl.ok = true; cycles = Some c; _ } -> (n + 1, s + c)
            | _ -> (n, s))
          acc p.Servewl.replies)
      (0, 0) phases
  in
  (* alignments the service computed (not cache hits) per second of its
     own CPU time: its throughput when saturated, measured without
     driving it into saturation. The median session rejects the
     machine's slow spells. *)
  let computed_of (p : Servewl.session) =
    Array.fold_left
      (fun a r ->
        match r with
        | Some { Servewl.ok = true; cached = false; _ } -> a + 1
        | _ -> a)
      0 p.Servewl.replies
  in
  let computed = List.fold_left (fun a p -> a + computed_of p) 0 phases in
  let cpu_s = List.fold_left (fun a p -> a +. p.Servewl.child_cpu_s) 0.0 phases in
  let cpu_rate ~scaled =
    median_of
      (List.map
         (fun (p : Servewl.session) ->
           let cpu =
             if scaled then Anchor.normalize ~anchor_s:p.anchor_s p.child_cpu_s
             else p.child_cpu_s
           in
           float_of_int (computed_of p) /. Float.max 1e-3 cpu)
         phases)
  in
  let outcomes =
    List.map
      (fun (r, l) ->
        let ss = List.map fst l in
        {
          Stats.rate = r;
          p99_ms =
            (let lat = pooled_lat ss in
             if Array.length lat = 0 then infinity else Stats.percentile lat 99.0);
          all_ok = oks ss = sent ss;
          growing = List.exists (fun p -> Stats.backlog_growing p.Servewl.backlog) ss;
        })
      by_rate
  in
  let max_rate = Stats.max_rate ~limit_ms:p99_limit_ms outcomes in
  let counts label ss =
    [
      ("gen." ^ label ^ ".sent", float_of_int (sent ss), "count");
      ("gen." ^ label ^ ".ok", float_of_int (oks ss), "count");
      ("gen." ^ label ^ ".failed", float_of_int (sent ss - oks ss), "count");
    ]
  in
  let per_rate =
    List.concat_map
      (fun (r, l) ->
        let ss = List.map fst l and label = rate_label r in
        counts label ss
        @ [ ("gen." ^ label ^ ".p99_ms", pct (pooled_lat ss) 99.0, "ms") ])
      by_rate
  in
  let admitted = sum_num mid_sessions "admitted"
  and hits = sum_num mid_sessions "cache_hits"
  and batches = sum_num mid_sessions "batches" in
  let mid_computed = sum_num mid_sessions "completed" -. hits in
  let mid_lines =
    Array.concat
      (List.map
         (fun p ->
           Array.map (fun k -> Inputs.request_line ~id:"x" universe.(k)) p.Servewl.keys)
         mid_sessions)
  in
  (* child start, spawn to the probe's reply: mostly the operating
     system's process start, left unscaled *)
  let starts = List.map (fun p -> p.Servewl.start_s) phases in
  let layers =
    [
      ("serve.cache_hit_ratio", hits /. Float.max 1.0 admitted, "ratio");
      ("serve.batches", batches, "count");
      ("serve.mean_batch_size", mid_computed /. Float.max 1.0 batches, "count");
      ("serve.parse_ns", parse_ns mid_lines, "ns");
      ( "serve.answered_open_ratio",
        float_of_int
          (List.fold_left (fun a p -> a + p.Servewl.answered_open) 0 mid_sessions)
        /. float_of_int (max 1 (sent mid_sessions)),
        "ratio" );
      ("serve.rejected", sum_num mid_sessions "rejected", "count");
      ("serve.expired", sum_num mid_sessions "expired", "count");
      ( "gen.max_late_ms",
        List.fold_left (fun a p -> Float.max a p.Servewl.max_late_ms) 0.0 phases,
        "ms" );
      ("serve.max_rate_rps", max_rate, "1/s");
      ("raw.setup_s", raw_gen_s +. median_of starts, "s");
      ("raw.aln_per_s", cpu_rate ~scaled:false, "1/s");
      ("raw.p50_ms", pct mid_lat 50.0, "ms");
      ("raw.p99_ms", pct mid_lat 99.0, "ms");
      ( "anchor.ms",
        median_of (List.map (fun p -> p.Servewl.anchor_s) phases) *. 1e3,
        "ms" );
    ]
    @ List.concat_map
        (fun (_, l) -> List.concat_map (fun (_, t) -> Option.value ~default:[] t) l)
        by_rate
    @ per_rate
  in
  let phase_notes =
    List.map
      (fun (p : Servewl.session) ->
        Printf.sprintf
          "session %.0f req/s: sent %d, ok %d; cache hits %.0f of %.0f; %.0f \
           batches; p50 %.1f ms, p99 %.1f ms over %d; %d answered before \
           close; child cpu %.2f s; backlog %s"
          p.Servewl.rate p.sent (ok_count p) (summary_num p "cache_hits")
          (summary_num p "admitted") (summary_num p "batches")
          (pct p.lat_ms 50.0) (pct p.lat_ms 99.0) (Array.length p.lat_ms)
          p.answered_open p.child_cpu_s
          (if Stats.backlog_growing p.backlog then "growing" else "steady"))
      phases
  in
  {
    e2e =
      [
        ("setup_s", gen_s +. median_of starts, "s");
        ("aln_per_s", cpu_rate ~scaled:true, "1/s");
        ( "device_aln_per_s",
          float_of_int cyc_n /. (float_of_int (max 1 cyc_sum) /. device_hz),
          "1/s" );
        ( "rss_mb",
          float_of_int
            (List.fold_left (fun a p -> max a p.Servewl.child_hwm_kb) 0 phases)
          /. 1024.0,
          "MB" );
        ("p50_ms", pct mid_lat 50.0, "ms");
        ("p99_ms", pct mid_lat 99.0, "ms");
      ];
    layers;
    attempted;
    failed;
    notes =
      Printf.sprintf
        "p50/p99 over %d requests at %.0f req/s; max_rate_rps %.0f (p99 limit \
         %.0f ms); %d alignments computed in %.2f s of service cpu (%.1f \
         aln/s before scaling to the anchor's reference speed)"
        (Array.length mid_lat) middle_rate max_rate p99_limit_ms computed cpu_s
        (cpu_rate ~scaled:false)
      :: (phase_notes @ notes);
  }

(* ---- per-layer samples (L0-L2) ---- *)

let batch_layer_groups (spec : Batchwl.spec) ~seed =
  let pairs = spec.Batchwl.pairs seed in
  let order = Array.init (Array.length pairs) Fun.id in
  Rng.shuffle (Rng.create (seed + 13)) order;
  let k = if spec == Batchwl.short_reads then 64 else 2 in
  let ws = Array.init k (fun i -> Batchwl.workload pairs.(order.(i))) in
  let packed =
    Registry.Packed (Batchwl.kernel spec, Dphls_kernels.K02_global_affine.default)
  in
  ([ packed ], [ (packed, ws) ])

let serve_layer_groups ~seed =
  let universe = Inputs.serve_universe seed in
  let per_kernel = 16 in
  let keys = Inputs.phase_keys ~seed ~phase:99 2000 in
  let groups =
    Array.to_list
      (Array.map
         (fun id ->
           let ws =
             Array.to_list keys
             |> List.sort_uniq compare
             |> List.filter (fun k -> universe.(k).Inputs.kernel = id)
             |> List.filteri (fun i _ -> i < per_kernel)
             |> List.map (fun k ->
                    Batchwl.workload (universe.(k).Inputs.qry, universe.(k).Inputs.ref_seq))
             |> Array.of_list
           in
           ((Dphls_kernels.Catalog.find id).Dphls_kernels.Catalog.packed, ws))
         Inputs.serve_kernels)
  in
  let systolic =
    List.filter_map
      (fun (p, _) -> if Registry.has_traceback p then Some p else None)
      groups
  in
  (systolic, groups)

(* ---- driver ---- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload short-reads|long-reads|serve-zipf --seed N \
     --seconds S --trace 0|1 --dphls PATH";
  exit 2

(* The metric catalog is BENCHMARK.json itself: its "end_to_end" or
   "per_layer" list, as (name, unit) in file order. *)
let declared section =
  let module Json = Dphls_analysis.Json in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Json.parse text with
  | Ok j -> (
    match Json.member section j with
    | Some (Json.Arr l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
          | _ -> None)
        l
    | _ -> failwith ("BENCHMARK.json: no " ^ section))
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

(* Exactly the declared metrics, in declared order. A declared per-layer
   metric this workload does not exercise reads 0; a measured metric the
   catalog does not declare, or one in another unit, is a defect of the
   benchmark and stops the run. *)
let select_declared section ~fill (measured : metric list) =
  let decl = declared section in
  List.iter
    (fun (n, _, u) ->
      match List.assoc_opt n decl with
      | Some u' when u' = u -> ()
      | _ ->
        Printf.eprintf "perfbench: metric %s (%s) is not declared in %s\n" n u
          section;
        exit 3)
    measured;
  List.map
    (fun (n, u) ->
      match List.find_opt (fun (n', _, _) -> n' = n) measured with
      | Some m -> m
      | None ->
        if fill then (n, 0.0, u)
        else begin
          Printf.eprintf "perfbench: %s metric %s was not measured\n" section n;
          exit 3
        end)
    decl

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed (metrics : metric list) =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name
          (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed = 0) attempted failed (String.concat "," fields)

let report workload (o : outcome) =
  Printf.eprintf "perfbench %s\n" workload;
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-30s %14.4f %s\n" n v u) o.e2e;
  Printf.eprintf "  %-30s %14.6f ratio (%d of %d)\n" "fail_ratio"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  List.iter (fun l -> Printf.eprintf "  %s\n" l) o.notes;
  flush stderr

(* Run this program with --trace 0 in a child process and read back its
   result line. *)
let untraced_child ~workload ~seed ~seconds ~dphls =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; "0"; "--dphls"; dphls |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process args.(0) args Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let text = In_channel.input_all (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  let module Json = Dphls_analysis.Json in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' text)
  in
  let num j k =
    match Json.member k j with Some (Json.Num f) -> f | _ -> nan
  in
  match (status, Json.parse last) with
  | Unix.WEXITED 0, Ok j ->
    let e2e =
      match Json.member "metrics" j with
      | Some (Json.Obj fields) ->
        List.map
          (fun (name, m) ->
            ( name,
              num m "value",
              match Json.member "unit" m with Some (Json.Str u) -> u | _ -> "" ))
          fields
      | _ -> []
    in
    {
      e2e;
      layers = [];
      attempted = int_of_float (num j "attempted");
      failed = int_of_float (num j "failed");
      notes = [];
    }
  | _ ->
    prerr_endline "perfbench: the untraced half failed";
    exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and dphls = ref "" in
  let int_arg v = match int_of_string_opt v with Some i -> i | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_arg v; parse tl
    | "--seconds" :: v :: tl -> seconds := int_arg v; parse tl
    | "--trace" :: v :: tl -> trace := int_arg v; parse tl
    | "--dphls" :: v :: tl -> dphls := v; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) || !dphls = ""
  then usage ();
  List.iter
    (fun f ->
      if not (Sys.file_exists f) then begin
        prerr_endline ("perfbench: run from the repository root (no " ^ f ^ ")");
        exit 2
      end)
    [ "BENCHMARK.json"; Expected.path; !dphls ];
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let seed = !seed and whole_seconds = !seconds in
  let seconds = float_of_int whole_seconds in
  let measure ~seconds ~traced =
    match !workload with
    | "short-reads" -> batch_measure Batchwl.short_reads ~seed ~seconds ~traced
    | "long-reads" -> batch_measure Batchwl.long_reads ~seed ~seconds ~traced
    | "serve-zipf" -> serve_measure ~dphls:!dphls ~seed ~seconds ~traced
    | _ -> usage ()
  in
  if !trace = 0 then begin
    let o = measure ~seconds ~traced:false in
    report !workload o;
    print_result ~attempted:o.attempted ~failed:o.failed
      (select_declared "end_to_end" ~fill:false o.e2e)
  end
  else begin
    (* the same measurement untraced and traced, half the time each;
       their difference is the tracing overhead. The untraced half runs
       in a child process so that neither half's peak RSS carries over
       into the other's. *)
    let half = max 1 (whole_seconds / 2) in
    let plain =
      untraced_child ~workload:!workload ~seed ~seconds:half ~dphls:!dphls
    in
    let traced = measure ~seconds:(float_of_int half) ~traced:true in
    (* paired by name: the child's metrics come back in BENCHMARK.json
       order, the traced ones in the order the workload measures them *)
    let overhead =
      List.map
        (fun (n, b, u) ->
          match List.find_opt (fun (n', _, _) -> n' = n) plain.e2e with
          | Some (_, a, _) -> ("overhead." ^ n, b -. a, u)
          | None ->
            Printf.eprintf "perfbench: the untraced half did not report %s\n" n;
            exit 3)
        traced.e2e
    in
    let datapath_kernels, groups =
      match !workload with
      | "serve-zipf" -> serve_layer_groups ~seed
      | "short-reads" -> batch_layer_groups Batchwl.short_reads ~seed
      | _ -> batch_layer_groups Batchwl.long_reads ~seed
    in
    let trace_file =
      Printf.sprintf "%s/%s-%d.trace.json" out_dir !workload seed
    in
    let l012 = Layers.metrics ~trace_file ~datapath_kernels groups in
    report (!workload ^ ", traced") traced;
    print_result
      ~attempted:(plain.attempted + traced.attempted)
      ~failed:(plain.failed + traced.failed)
      (select_declared "per_layer" ~fill:true (l012 @ traced.layers @ overhead))
  end

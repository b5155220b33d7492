open Dphls_core
module Score = Dphls_util.Score

type matrices = {
  scores : Types.score array array array;
  pointers : int array array;
}

(* The adaptive band's trajectory depends on the wavefront traversal
   (only completed wavefronts can steer the window), so the golden
   engine replays the systolic engine's chunked anti-diagonal order —
   chunks of [band_pe] query rows, within a chunk wavefront [w] holds
   cells (r0 + k, w - k). Anti-diagonal order respects all DP
   dependencies, so the scores are identical to a row-major fill; only
   the pruning decisions need the shared ordering. *)
let fill_adaptive kernel params (w : Workload.t) ~band ~band_pe ~qry_len ~ref_len
    ~scores ~pointers =
  let tracker =
    Banding.Tracker.create band ~objective:kernel.Kernel.objective
      ~chunk_rows:band_pe ~qry_len ~ref_len
  in
  let in_band ~row ~col = Banding.Tracker.member tracker ~row ~col in
  let read ~row ~col ~layer = scores.(layer).(row).(col) in
  let grid = Grid.create ~in_band kernel params ~qry_len ~ref_len ~read in
  let flat_pe = Kernel.flat_pe kernel params in
  let n_layers = kernel.Kernel.n_layers in
  let buf = Pe.create_buffers ~n_layers in
  let out = buf.Pe.b_scores in
  let n_chunks = (qry_len + band_pe - 1) / band_pe in
  for chunk = 0 to n_chunks - 1 do
    Banding.Tracker.start_chunk tracker ~chunk;
    let r0 = chunk * band_pe in
    let r1 = min (r0 + band_pe - 1) (qry_len - 1) in
    for wavefront = 0 to r1 - r0 + ref_len - 1 do
      for k = 0 to r1 - r0 do
        let row = r0 + k and col = wavefront - k in
        if col >= 0 && col < ref_len && Banding.Tracker.decide tracker ~row ~col
        then begin
          Grid.fill_input grid buf ~query:w.query ~reference:w.reference ~row
            ~col;
          flat_pe buf;
          for layer = 0 to n_layers - 1 do
            scores.(layer).(row).(col) <- out.(layer)
          done;
          pointers.(row).(col) <- buf.Pe.b_tb;
          Banding.Tracker.observe tracker ~row ~col ~score:out.(0)
        end
      done;
      Banding.Tracker.end_wavefront tracker
    done
  done;
  ( Banding.Tracker.cells_computed tracker,
    Banding.Tracker.window_moves tracker,
    in_band )

let fill ?band_pe kernel params (w : Workload.t) =
  let qry_len = Array.length w.query and ref_len = Array.length w.reference in
  if qry_len < 1 || ref_len < 1 then invalid_arg "Ref_engine: empty sequence";
  let worst = Score.worst_value kernel.Kernel.objective in
  let scores =
    Array.init kernel.Kernel.n_layers (fun _ ->
        Array.make_matrix qry_len ref_len worst)
  in
  let pointers = Array.make_matrix qry_len ref_len 0 in
  match kernel.Kernel.banding with
  | Some (Banding.Adaptive _ as band) ->
    let band_pe =
      match band_pe with
      | Some n ->
        if n < 1 then invalid_arg "Ref_engine: band_pe must be >= 1";
        n
      | None -> qry_len (* one chunk: the ideal full-height wavefront *)
    in
    let cells, moves, in_band =
      fill_adaptive kernel params w ~band ~band_pe ~qry_len ~ref_len ~scores
        ~pointers
    in
    (scores, pointers, cells, moves, qry_len, ref_len, in_band)
  | (Some (Banding.Fixed _) | None) as banding ->
    let in_band ~row ~col = Banding.in_band banding ~row ~col in
    let read ~row ~col ~layer = scores.(layer).(row).(col) in
    let grid = Grid.create kernel params ~qry_len ~ref_len ~read in
    let flat_pe = Kernel.flat_pe kernel params in
    let n_layers = kernel.Kernel.n_layers in
    let buf = Pe.create_buffers ~n_layers in
    let out = buf.Pe.b_scores in
    let cells = ref 0 in
    for row = 0 to qry_len - 1 do
      for col = 0 to ref_len - 1 do
        if in_band ~row ~col then begin
          Grid.fill_input grid buf ~query:w.query ~reference:w.reference ~row
            ~col;
          flat_pe buf;
          for layer = 0 to n_layers - 1 do
            scores.(layer).(row).(col) <- out.(layer)
          done;
          pointers.(row).(col) <- buf.Pe.b_tb;
          incr cells
        end
      done
    done;
    (scores, pointers, !cells, 0, qry_len, ref_len, in_band)

let result_of ?metrics kernel params scores pointers cells qry_len ref_len
    ~in_band =
  let score_at ~row ~col = scores.(0).(row).(col) in
  let start_cell, score =
    Score_site.find ~objective:kernel.Kernel.objective ~rule:kernel.Kernel.score_site
      ~in_band ~score_at ~qry_len ~ref_len
  in
  match kernel.Kernel.traceback params with
  | None ->
    {
      Result.score;
      start_cell = None;
      end_cell = None;
      path = [];
      cells_computed = cells;
    }
  | Some spec ->
    let ptr_at ~row ~col = pointers.(row).(col) in
    let outcome =
      Walker.walk ?metrics ~fsm:spec.Traceback.fsm ~stop:spec.Traceback.stop
        ~ptr_at ~start:start_cell ~qry_len ~ref_len ()
    in
    {
      Result.score;
      start_cell = Some start_cell;
      end_cell = Some outcome.Walker.end_cell;
      path = outcome.Walker.path;
      cells_computed = cells;
    }

let run_full ?band_pe ?(metrics = Dphls_obs.Metrics.disabled)
    ?(tracer = Dphls_obs.Tracer.disabled) kernel params w =
  let t_fill = Dphls_obs.Tracer.now tracer in
  let scores, pointers, cells, moves, qry_len, ref_len, in_band =
    fill ?band_pe kernel params w
  in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_fill
    ~t1:(Dphls_obs.Tracer.now tracer) "fill";
  Dphls_obs.Metrics.add metrics Cells_evaluated cells;
  Dphls_obs.Metrics.add metrics Cells_band_skipped ((qry_len * ref_len) - cells);
  Dphls_obs.Metrics.add metrics Band_window_moves moves;
  Dphls_obs.Metrics.incr metrics Alignments;
  let t_tb = Dphls_obs.Tracer.now tracer in
  let result =
    result_of ~metrics kernel params scores pointers cells qry_len ref_len
      ~in_band
  in
  Dphls_obs.Tracer.add_span tracer ~cat:"engine" ~t0:t_tb
    ~t1:(Dphls_obs.Tracer.now tracer) "traceback";
  (result, { scores; pointers })

let run ?band_pe ?metrics ?tracer kernel params w =
  fst (run_full ?band_pe ?metrics ?tracer kernel params w)

let score_only ?band_pe kernel params w = (run ?band_pe kernel params w).Result.score

let band_map ?band_pe kernel params w =
  let _, _, _, _, _, _, in_band = fill ?band_pe kernel params w in
  in_band

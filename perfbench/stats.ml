(* Small statistics the benchmark reports: nearest-rank percentiles,
   layer self time from spans, and the backlog and rate rules of the
   open-loop service workload. *)

let percentile xs p = Dphls_util.Stats.percentile_exact xs p
let median xs = percentile xs 50.0

(* A recorded interval on one track, in seconds. *)
type span = { name : string; tid : int; t0 : float; t1 : float }

(* Self time of every span: its duration minus the time covered by its
   direct children, the spans on the same track nested inside it. Spans
   are recorded when they end, so of two identical intervals the later
   one is the parent. Returns (name, self seconds) in input order. *)
let self_times spans =
  let arr = Array.of_list spans in
  let covered = Array.make (Array.length arr) 0.0 in
  let order = Array.init (Array.length arr) Fun.id in
  Array.sort
    (fun i j ->
      let a = arr.(i) and b = arr.(j) in
      compare (a.tid, a.t0, -.a.t1, -i) (b.tid, b.t0, -.b.t1, -j))
    order;
  let contains p c = p.tid = c.tid && p.t0 <= c.t0 && c.t1 <= p.t1 in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let s = arr.(i) in
      let rec unwind = function
        | p :: rest when not (contains arr.(p) s) -> unwind rest
        | st -> st
      in
      stack := unwind !stack;
      (match !stack with
      | p :: _ -> covered.(p) <- covered.(p) +. (s.t1 -. s.t0)
      | [] -> ());
      stack := i :: !stack)
    order;
  Array.to_list
    (Array.mapi (fun i s -> (s.name, s.t1 -. s.t0 -. covered.(i))) arr)

(* Sum of self seconds per span name. *)
let self_time_by_name spans name =
  List.fold_left
    (fun acc (n, s) -> if n = name then acc +. s else acc)
    0.0 (self_times spans)

(* Open-loop backlog rule. [samples] are the outstanding-request counts
   taken at a fixed tick over one rate's sending window. The first third
   is ramp-up; the backlog grows when the last third's mean exceeds the
   middle third's by half, plus a slack of ten requests so a short
   stationary queue never trips it. *)
let backlog_growing samples =
  let n = Array.length samples in
  if n < 3 then false
  else
    let mean lo hi =
      let s = ref 0.0 in
      for i = lo to hi - 1 do
        s := !s +. float_of_int samples.(i)
      done;
      !s /. float_of_int (max 1 (hi - lo))
    in
    let a = n / 3 and b = 2 * n / 3 in
    mean b n > (1.5 *. mean a b) +. 10.0

(* Per offered rate: its p99 in ms, whether every request succeeded and
   whether its backlog grew. *)
type rate_outcome = {
  rate : float;
  p99_ms : float;
  all_ok : bool;
  growing : bool;
}

(* The highest rate that met the p99 limit with no failure and no
   growing backlog; 0 when none did. *)
let max_rate ~limit_ms outcomes =
  List.fold_left
    (fun best o ->
      if o.p99_ms <= limit_ms && o.all_ok && not o.growing then
        Float.max best o.rate
      else best)
    0.0 outcomes

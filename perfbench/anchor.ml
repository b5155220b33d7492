(* The machine-speed anchor. Host wall time on a shared machine drifts by
   tens of percent within seconds, so single-threaded latencies are also
   reported as they would read at a fixed reference speed: each sample
   is scaled by the reference time of this anchor over the time the
   anchor took just before the sample.

   The anchor is a hand-fused Gotoh fill with traceback-pointer stores
   in plain OCaml over a fixed 150 x 150 pair. It lives in the benchmark
   and shares no code with the program under test, so a change to the
   program never moves it. *)

let pair =
  let rng = Dphls_util.Rng.create 0xA1C0 in
  let s () = String.init 150 (fun _ -> "ACGT".[Dphls_util.Rng.int rng 4]) in
  let q = s () in
  (q, s ())

let fill (q : string) (r : string) =
  let n = String.length q and m = String.length r in
  let neg = -1_000_000 in
  let h = Array.make (m + 1) 0 and e = Array.make (m + 1) neg in
  let tb = Bytes.create ((n + 1) * (m + 1)) in
  for j = 1 to m do
    h.(j) <- -2 - j
  done;
  for i = 1 to n do
    let diag = ref h.(0) and f = ref neg in
    h.(0) <- -2 - i;
    for j = 1 to m do
      let up = h.(j) in
      let e' = max (e.(j) - 1) (up - 3) in
      e.(j) <- e';
      f := max (!f - 1) (h.(j - 1) - 3);
      let s = !diag + if q.[i - 1] = r.[j - 1] then 2 else -4 in
      let best = max s (max e' !f) in
      Bytes.set tb ((i * (m + 1)) + j)
        (Char.chr (if best = s then 0 else if best = e' then 1 else 2));
      diag := up;
      h.(j) <- best
    done
  done;
  (h.(m), Bytes.get tb (n * (m + 1) + m))

(* Seconds for one fill of the anchor pair. *)
let time () =
  let q, r = pair in
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (fill q r));
  Unix.gettimeofday () -. t0

(* The median of three [time ()] runs, for samples long enough that the
   anchor's own cost is small beside them: one run can land in a stall. *)
let time3 () =
  let a = time () and b = time () and c = time () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* [time ()] on the machine the benchmark was calibrated on: the median
   of 27000 fills on a 2-vCPU Xeon VM, whose own fills ranged from 1.1
   to 1.8 ms between its 10th and 90th percentiles. *)
let reference_s = 0.0015

(* [raw_s] scaled to the reference speed, given the anchor time measured
   just before it. *)
let normalize ~anchor_s raw_s = raw_s *. reference_s /. anchor_s

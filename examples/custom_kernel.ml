(* Defining a brand-new DP kernel through the front-end — the paper's
   productivity claim (§7.6) in action.

   The kernel below is *edit distance* (Levenshtein), which is not one
   of the 15 shipped kernels: a minimizing objective with unit costs and
   a global traceback. Everything needed is the familiar six front-end
   steps — data types, initialization, the PE function, the traceback
   FSM, banding (none) and parallelism — in ~50 lines; the systolic
   back-end, traceback memory and resource model come for free.

   Run with:  dune exec examples/custom_kernel.exe *)

open Dphls_core
module Score = Dphls_util.Score
module Linear = Dphls_kernels.Kdefs.Linear

let edit_distance_kernel : unit Kernel.t =
  let pe () (i : Pe.input) =
    let sub_cost = if Types.equal_ch i.Pe.qry i.Pe.rf then 0 else 1 in
    let best, ptr =
      (* preference order fixes tie-breaks: diagonal first *)
      List.fold_left
        (fun (bs, bp) (s, p) -> if s < bs then (s, p) else (bs, bp))
        (Score.add i.Pe.diag.(0) sub_cost, Linear.ptr_diag)
        [
          (Score.add i.Pe.up.(0) 1, Linear.ptr_up);
          (Score.add i.Pe.left.(0) 1, Linear.ptr_left);
        ]
    in
    { Pe.scores = [| best |]; tb = ptr }
  in
  {
    Kernel.id = 0;
    name = "edit-distance";
    description = "Levenshtein distance (user-defined kernel)";
    objective = Score.Minimize;
    n_layers = 1;
    score_bits = 16;
    tb_bits = 2;
    init_row = (fun () ~ref_len:_ ~layer:_ ~col -> col + 1);
    init_col = (fun () ~qry_len:_ ~layer:_ ~row -> row + 1);
    origin = (fun () ~layer:_ -> 0);
    (* a hand-written boxed PE: engines adapt it automatically; an
       [Ir] cell would also get RTL and the datapath passes *)
    pe = Closure pe;
    score_site = Traceback.Bottom_right;
    traceback =
      (fun () -> Some { Traceback.fsm = Linear.fsm; stop = Traceback.At_origin });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 3;
        muls_per_pe = 0;
        cmps_per_pe = 3;
        ii = 1;
        logic_depth = 4;
        char_bits = 2;
        param_bits = 0;
      };
  }

(* Simple independent oracle for validation. *)
let levenshtein a b =
  let n = Array.length a and m = Array.length b in
  let prev = Array.init (m + 1) Fun.id in
  let cur = Array.make (m + 1) 0 in
  for i = 1 to n do
    cur.(0) <- i;
    for j = 1 to m do
      let sub = if a.(i - 1) = b.(j - 1) then 0 else 1 in
      cur.(j) <- min (prev.(j - 1) + sub) (min (prev.(j) + 1) (cur.(j - 1) + 1))
    done;
    Array.blit cur 0 prev 0 (m + 1)
  done;
  prev.(m)

let () =
  let rng = Dphls_util.Rng.create 5 in
  let config = Dphls_systolic.Config.create ~n_pe:16 in
  let all_ok = ref true in
  for trial = 1 to 10 do
    let a = Dphls_alphabet.Dna.random rng (20 + Dphls_util.Rng.int rng 60) in
    let b = Dphls_alphabet.Dna.random rng (20 + Dphls_util.Rng.int rng 60) in
    let w = Workload.of_bases ~query:a ~reference:b in
    let result, _ = Dphls_systolic.Engine.run config edit_distance_kernel () w in
    let expect = levenshtein a b in
    if result.Result.score <> expect then all_ok := false;
    if trial <= 3 then
      Printf.printf "edit(%2d aa, %2d aa) = %d (oracle %d), cigar %s\n"
        (Array.length a) (Array.length b) result.Result.score expect
        (Result.cigar result)
  done;
  Printf.printf "all 10 random trials match the oracle: %b\n" !all_ok;
  (* The back-end gives the hardware estimate for free. *)
  let packed = Registry.Packed (edit_distance_kernel, ()) in
  let cfg = { Dphls_resource.Estimate.n_pe = 32; max_qry = 256; max_ref = 256 } in
  let p = Dphls_resource.Estimate.block_percent packed cfg in
  Printf.printf
    "32-PE block estimate: LUT %.2f%%, FF %.2f%%, BRAM %.2f%%, %.0f MHz\n"
    (100.0 *. p.Dphls_resource.Device.lut_pct)
    (100.0 *. p.ff_pct) (100.0 *. p.bram_pct)
    (Dphls_resource.Estimate.max_frequency_mhz packed)

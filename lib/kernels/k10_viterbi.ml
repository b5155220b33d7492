open Dphls_core
module Score = Dphls_util.Score
module Ap_fixed = Dphls_fixed.Ap_fixed

type params = {
  trans_mm : int;
  trans_gap_open : int;
  trans_gap_extend : int;
  trans_gap_close : int;
  emission : int array array;
  gap_emission : int;
}

let fixed_spec = Ap_fixed.spec ~width:24 ~frac:12

let quantize x = Ap_fixed.of_float fixed_spec (log x)

let default =
  let mu = 0.05 and lambda = 0.4 in
  let p_match = 0.9 in
  let emission =
    Array.init 5 (fun a ->
        Array.init 5 (fun b ->
            if a = 4 || b = 4 then quantize 0.01
            else if a = b then quantize p_match
            else quantize ((1.0 -. p_match) /. 3.0)))
  in
  {
    trans_mm = quantize (1.0 -. (2.0 *. mu));
    trans_gap_open = quantize mu;
    trans_gap_extend = quantize lambda;
    trans_gap_close = quantize (1.0 -. lambda);
    emission;
    gap_emission = quantize 0.25;
  }

(* Layers: 0 = M (match state), 1 = I (insert: consumes query),
   2 = D (delete: consumes reference). Log-space Viterbi, as
   [Cells.viterbi_cell] states it:
     M(i,j) = e(q,r) + max(M(i-1,j-1)+tMM, I(i-1,j-1)+tGC, D(i-1,j-1)+tGC)
     I(i,j) = eg + max(M(i-1,j)+tGO, I(i-1,j)+tGE)
     D(i,j) = eg + max(M(i,j-1)+tGO, D(i,j-1)+tGE) *)
let bindings p =
  {
    Datapath.params =
      [
        ("trans_mm", p.trans_mm);
        ("trans_gap_open", p.trans_gap_open);
        ("trans_gap_extend", p.trans_gap_extend);
        ("trans_gap_close", p.trans_gap_close);
        ("gap_emission", p.gap_emission);
      ];
    tables = [ ("emission", p.emission) ];
  }

let border p ~layer ~index =
  (* Only gap states can sit on a border: opening once then extending. *)
  match layer with
  | 0 -> Score.neg_inf
  | _ ->
    Score.add
      (Score.add p.trans_gap_open (p.trans_gap_extend * index))
      (p.gap_emission * (index + 1))

let kernel =
  {
    Kernel.id = 10;
    name = "viterbi";
    description = "Pair-HMM Viterbi (log-space fixed point, no traceback)";
    objective = Score.Maximize;
    n_layers = 3;
    (* Parameters are quantized to 24-bit <24,12> fixed point, but the
       accumulated path log-probability shrinks by ~ -2.3 per cell
       (~ -9.4e3 raw), which escapes 24 bits within ~250 steps — the
       checker (`dphls check -k 10`) flags exactly that. 28 bits hold
       walks beyond length 4096. *)
    score_bits = 28;
    tb_bits = 0;
    init_row = (fun p ~ref_len:_ ~layer ~col -> border p ~layer ~index:col);
    init_col = (fun p ~qry_len:_ ~layer ~row -> border p ~layer ~index:row);
    origin = (fun _ ~layer -> if layer = 0 then 0 else Score.neg_inf);
    pe = Ir (fun p -> (Cells.viterbi_cell, bindings p));
    score_site = Traceback.Bottom_right;
    traceback = (fun _ -> None);
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 10;
        muls_per_pe = 0;
        cmps_per_pe = 7;
        ii = 1;
        logic_depth = 10;
        char_bits = 3;
        param_bits = 27 * 24;
      };
  }

let gen rng ~len =
  let genome = Dphls_seqgen.Dna_gen.genome rng (len * 4) in
  let reads =
    Dphls_seqgen.Read_sim.simulate rng ~genome
      ~profile:(Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.12)
      ~read_length:(len * 2) ~count:1
  in
  match reads with
  | [ r ] ->
    let r = Dphls_seqgen.Read_sim.truncate r len in
    let query, reference = Dphls_seqgen.Read_sim.pair_for_alignment r in
    Workload.of_bases ~query ~reference
  | _ -> assert false

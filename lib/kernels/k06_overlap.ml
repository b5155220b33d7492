open Dphls_core
module Score = Dphls_util.Score

type params = { match_ : int; mismatch : int; gap : int }

let default = { match_ = 2; mismatch = -2; gap = -2 }

let bindings p =
  {
    Datapath.params =
      [ ("match", p.match_); ("mismatch", p.mismatch); ("gap", p.gap) ];
    tables = [];
  }

let kernel =
  {
    Kernel.id = 6;
    name = "overlap";
    description = "Overlap alignment for assembly";
    objective = Score.Maximize;
    n_layers = 1;
    score_bits = 16;
    tb_bits = 2;
    init_row = (fun _ ~ref_len:_ ~layer:_ ~col:_ -> 0);
    init_col = (fun _ ~qry_len:_ ~layer:_ ~row:_ -> 0);
    origin = (fun _ ~layer:_ -> 0);
    pe = Ir (fun p -> (Cells.linear_global_cell, bindings p));
    score_site = Traceback.Last_row_or_col_best;
    traceback =
      (fun _ ->
        Some { Traceback.fsm = Kdefs.Linear.fsm; stop = Traceback.At_top_or_left });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 3;
        muls_per_pe = 0;
        cmps_per_pe = 4;
        ii = 1;
        logic_depth = 4;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 48;
      };
  }

let gen rng ~len =
  let module Rng = Dphls_util.Rng in
  let overlap = max 1 (min (len / 2) len) in
  let shared = Dphls_alphabet.Dna.random rng overlap in
  let corrupt seq =
    Dphls_seqgen.Dna_gen.mutate_point rng seq ~rate:0.05
  in
  let flank = max 0 (len - overlap) in
  let a_prefix = if flank = 0 then [||] else Dphls_alphabet.Dna.random rng flank in
  let b_suffix = if flank = 0 then [||] else Dphls_alphabet.Dna.random rng flank in
  (* query ends with the shared segment; reference begins with it *)
  let query = Array.append a_prefix (corrupt shared) in
  let reference = Array.append (corrupt shared) b_suffix in
  Workload.of_bases ~query ~reference

open Dphls_core
module Score = Dphls_util.Score
module Protein = Dphls_alphabet.Protein

type params = { matrix : int array array; gap : int }

let default = { matrix = Protein.blosum62; gap = -4 }

let bindings p =
  {
    Datapath.params = [ ("gap", p.gap) ];
    tables = [ ("matrix", p.matrix) ];
  }

let kernel =
  {
    Kernel.id = 15;
    name = "protein-local";
    description = "Local linear protein alignment (BLOSUM62)";
    objective = Score.Maximize;
    n_layers = 1;
    score_bits = 16;
    tb_bits = 2;
    init_row = (fun _ ~ref_len:_ ~layer:_ ~col:_ -> 0);
    init_col = (fun _ ~qry_len:_ ~layer:_ ~row:_ -> 0);
    origin = (fun _ ~layer:_ -> 0);
    pe = Ir (fun p -> (Cells.protein_cell, bindings p));
    score_site = Traceback.Global_best;
    traceback =
      (fun _ -> Some { Traceback.fsm = Kdefs.Linear.fsm; stop = Traceback.On_stop_move });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 3;
        muls_per_pe = 0;
        cmps_per_pe = 4;
        ii = 1;
        logic_depth = 7;
        char_bits = Protein.bits;
        param_bits = (20 * 20 * 8) + 16;
      };
  }

let gen rng ~len =
  let reference = Dphls_seqgen.Protein_gen.sample rng len in
  let homolog = Dphls_seqgen.Protein_gen.homolog rng reference ~identity:0.6 in
  let query =
    if Array.length homolog > len then Array.sub homolog 0 len
    else if Array.length homolog = 0 then Array.sub reference 0 1
    else homolog
  in
  Workload.of_bases ~query ~reference

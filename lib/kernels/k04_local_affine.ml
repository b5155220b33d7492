open Dphls_core
module Score = Dphls_util.Score

type params = { match_ : int; mismatch : int; gap_open : int; gap_extend : int }

let default = { match_ = 2; mismatch = -2; gap_open = -3; gap_extend = -1 }

let bindings p =
  {
    Datapath.params =
      [
        ("match", p.match_);
        ("mismatch", p.mismatch);
        ("gap_oe", Score.add p.gap_open p.gap_extend);
        ("gap_extend", p.gap_extend);
      ];
    tables = [];
  }

let kernel =
  {
    Kernel.id = 4;
    name = "local-affine";
    description = "Local affine alignment (Smith-Waterman-Gotoh)";
    objective = Score.Maximize;
    n_layers = 3;
    score_bits = 16;
    tb_bits = 4;
    init_row = (fun _ ~ref_len:_ ~layer ~col:_ -> Affine_rec.init_zero ~layer);
    init_col = (fun _ ~qry_len:_ ~layer ~row:_ -> Affine_rec.init_zero ~layer);
    origin = (fun _ ~layer -> Affine_rec.init_zero ~layer);
    pe = Ir (fun p -> (Cells.affine_cell ~local:true, bindings p));
    score_site = Traceback.Global_best;
    traceback =
      (fun _ -> Some { Traceback.fsm = Kdefs.Affine.fsm; stop = Traceback.On_stop_move });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 6;
        muls_per_pe = 0;
        cmps_per_pe = 7;
        ii = 1;
        logic_depth = 6;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 64;
      };
  }

let gen = K01_global_linear.gen

open Dphls_core
module Score = Dphls_util.Score

type params = { match_ : int; mismatch : int; gaps : Two_piece_rec.gaps }

(* Minimap2-like defaults: steep piece (o=-4, e=-2), shallow piece
   (o=-24, e=-1); long gaps switch to the shallow regime. *)
let default =
  {
    match_ = 2;
    mismatch = -4;
    gaps = { Two_piece_rec.open1 = -4; extend1 = -2; open2 = -24; extend2 = -1 };
  }

let bindings p =
  let g = p.gaps in
  {
    Datapath.params =
      [
        ("match", p.match_);
        ("mismatch", p.mismatch);
        ("oe1", Score.add g.Two_piece_rec.open1 g.extend1);
        ("e1", g.extend1);
        ("oe2", Score.add g.open2 g.extend2);
        ("e2", g.extend2);
      ];
    tables = [];
  }

let kernel =
  {
    Kernel.id = 5;
    name = "global-two-piece";
    description = "Global two-piece affine alignment (Minimap2 gap model)";
    objective = Score.Maximize;
    n_layers = 5;
    score_bits = 16;
    tb_bits = 7;
    init_row =
      (fun p ~ref_len:_ ~layer ~col -> Two_piece_rec.init_border p.gaps ~layer ~index:col);
    init_col =
      (fun p ~qry_len:_ ~layer ~row -> Two_piece_rec.init_border p.gaps ~layer ~index:row);
    origin = (fun _ ~layer -> Two_piece_rec.origin ~layer);
    pe = Ir (fun p -> (Cells.two_piece_cell, bindings p));
    score_site = Traceback.Bottom_right;
    traceback =
      (fun _ -> Some { Traceback.fsm = Kdefs.Two_piece.fsm; stop = Traceback.At_origin });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 12;
        muls_per_pe = 0;
        cmps_per_pe = 12;
        ii = 1;
        logic_depth = 9;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 96;
      };
  }

let gen = K01_global_linear.gen

open Dphls_core
module Score = Dphls_util.Score

type params = { match_ : int; mismatch : int; gaps : Two_piece_rec.gaps }

let default =
  {
    match_ = 2;
    mismatch = -4;
    gaps = { Two_piece_rec.open1 = -4; extend1 = -2; open2 = -24; extend2 = -1 };
  }

let default_bandwidth = 32

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

let kernel_with ~bandwidth =
  {
    Kernel.id = 13;
    name = "banded-global-two-piece";
    description = "Banded global two-piece affine alignment";
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
    banding = Some (Banding.fixed bandwidth);
    traits =
      {
        Traits.adds_per_pe = 12;
        muls_per_pe = 0;
        cmps_per_pe = 14;
        ii = 1;
        logic_depth = 10;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 96;
      };
  }

let kernel = kernel_with ~bandwidth:default_bandwidth

let adaptive_with ~bandwidth ~threshold =
  {
    (kernel_with ~bandwidth) with
    Kernel.id = 18;
    name = "adaptive-global-two-piece";
    description = "Adaptive-banded global two-piece affine alignment";
    banding = Some (Banding.adaptive ~threshold bandwidth);
  }

let kernel_adaptive =
  adaptive_with ~bandwidth:default_bandwidth ~threshold:Banding.default_threshold

let gen = K11_banded_global_linear.gen

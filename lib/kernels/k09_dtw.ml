open Dphls_core
module Score = Dphls_util.Score
module Signal = Dphls_alphabet.Signal

type params = unit

let default = ()

let bindings () = { Datapath.params = []; tables = [] }

let kernel =
  {
    Kernel.id = 9;
    name = "dtw";
    description = "Dynamic time warping of complex signals (min objective)";
    objective = Score.Minimize;
    n_layers = 1;
    score_bits = 32;
    tb_bits = 2;
    init_row = (fun () ~ref_len:_ ~layer:_ ~col:_ -> Score.pos_inf);
    init_col = (fun () ~qry_len:_ ~layer:_ ~row:_ -> Score.pos_inf);
    origin = (fun () ~layer:_ -> 0);
    pe = Ir (fun p -> (Cells.dtw_cell, bindings p));
    score_site = Traceback.Bottom_right;
    traceback =
      (fun () -> Some { Traceback.fsm = Kdefs.Linear.fsm; stop = Traceback.At_origin });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 4;
        muls_per_pe = 3;
        cmps_per_pe = 4;
        ii = 2;
        logic_depth = 7;
        char_bits = 64;
        param_bits = 0;
      };
  }

let gen rng ~len =
  let reference = Dphls_seqgen.Signal_gen.complex_sequence rng len in
  let warped = Dphls_seqgen.Signal_gen.warped_copy rng reference ~noise:0.05 in
  let query =
    if Array.length warped > len then Array.sub warped 0 len else warped
  in
  Workload.of_seqs ~query ~reference

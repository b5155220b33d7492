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
    Kernel.id = 3;
    name = "local-linear";
    description = "Local linear alignment (Smith-Waterman)";
    objective = Score.Maximize;
    n_layers = 1;
    score_bits = 16;
    tb_bits = 2;
    init_row = (fun _ ~ref_len:_ ~layer:_ ~col:_ -> 0);
    init_col = (fun _ ~qry_len:_ ~layer:_ ~row:_ -> 0);
    origin = (fun _ ~layer:_ -> 0);
    (* Paper Listing 6: candidates are compared and the result floors at
       0 with an END pointer marking the traceback stop. *)
    pe = Ir (fun p -> (Cells.linear_local_cell, bindings p));
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
        logic_depth = 5;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 48;
      };
  }

let gen = K01_global_linear.gen

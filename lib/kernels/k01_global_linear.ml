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
    Kernel.id = 1;
    name = "global-linear";
    description = "Global linear alignment (Needleman-Wunsch)";
    objective = Score.Maximize;
    n_layers = 1;
    score_bits = 16;
    tb_bits = 2;
    init_row = (fun p ~ref_len:_ ~layer:_ ~col -> p.gap * (col + 1));
    init_col = (fun p ~qry_len:_ ~layer:_ ~row -> p.gap * (row + 1));
    origin = (fun _ ~layer:_ -> 0);
    pe = Ir (fun p -> (Cells.linear_global_cell, bindings p));
    score_site = Traceback.Bottom_right;
    traceback = (fun _ -> Some { Traceback.fsm = Kdefs.Linear.fsm; stop = Traceback.At_origin });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 3;
        muls_per_pe = 0;
        cmps_per_pe = 3;
        ii = 1;
        logic_depth = 4;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 48;
      };
  }

let gen rng ~len =
  let genome = Dphls_seqgen.Dna_gen.genome rng (len * 4) in
  let reads =
    Dphls_seqgen.Read_sim.simulate rng ~genome
      ~profile:Dphls_seqgen.Read_sim.pacbio_30 ~read_length:(len * 2) ~count:1
  in
  match reads with
  | [ r ] ->
    let r = Dphls_seqgen.Read_sim.truncate r len in
    let query, reference = Dphls_seqgen.Read_sim.pair_for_alignment r in
    Workload.of_bases ~query ~reference
  | _ -> assert false

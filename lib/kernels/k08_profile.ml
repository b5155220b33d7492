open Dphls_core
module Score = Dphls_util.Score
module Profile = Dphls_alphabet.Profile

type params = {
  match_ : int;
  mismatch : int;
  gap_symbol : int;
  gap_column : int;
  depth : int;  (* member sequences per profile; fixes the border gap cost *)
}

let default = { match_ = 2; mismatch = -2; gap_symbol = -2; gap_column = -2; depth = 4 }

(* Border gap costs assume full-depth columns on both sides; the workload
   generator produces constant-depth profiles, so this matches the
   recurrence exactly on the border. *)
let border_gap p ~index = p.gap_column * p.depth * p.depth * (index + 1)

let bindings p =
  { Datapath.params = [ ("gap_column", p.gap_column) ]; tables = [] }

let kernel =
  {
    Kernel.id = 8;
    name = "profile";
    description = "Profile-profile alignment with sum-of-pairs scoring";
    objective = Score.Maximize;
    n_layers = 1;
    score_bits = 32;
    tb_bits = 2;
    init_row = (fun p ~ref_len:_ ~layer:_ ~col -> border_gap p ~index:col);
    init_col = (fun p ~qry_len:_ ~layer:_ ~row -> border_gap p ~index:row);
    origin = (fun _ ~layer:_ -> 0);
    pe =
      Ir
        (fun p ->
          ( Cells.profile_cell ~match_:p.match_ ~mismatch:p.mismatch
              ~gap_symbol:p.gap_symbol,
            bindings p ));
    score_site = Traceback.Bottom_right;
    traceback =
      (fun _ -> Some { Traceback.fsm = Kdefs.Linear.fsm; stop = Traceback.At_origin });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 10;
        muls_per_pe = 30;
        cmps_per_pe = 3;
        ii = 4;
        logic_depth = 8;
        char_bits = 5 * 8;
        param_bits = 32 * 4;
      };
  }

let gen rng ~len =
  let p1, p2 =
    Dphls_seqgen.Profile_gen.related_pair rng ~length:len ~members:default.depth
      ~divergence:0.1
  in
  Workload.of_seqs ~query:p1 ~reference:p2

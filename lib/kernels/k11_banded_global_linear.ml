open Dphls_core
module Score = Dphls_util.Score

type params = { match_ : int; mismatch : int; gap : int }

let default = { match_ = 2; mismatch = -2; gap = -2 }
let default_bandwidth = 32

let bindings p =
  {
    Datapath.params =
      [ ("match", p.match_); ("mismatch", p.mismatch); ("gap", p.gap) ];
    tables = [];
  }

let kernel_with ~bandwidth =
  {
    Kernel.id = 11;
    name = "banded-global-linear";
    description = "Banded global linear alignment";
    objective = Score.Maximize;
    n_layers = 1;
    score_bits = 16;
    tb_bits = 2;
    init_row = (fun p ~ref_len:_ ~layer:_ ~col -> p.gap * (col + 1));
    init_col = (fun p ~qry_len:_ ~layer:_ ~row -> p.gap * (row + 1));
    origin = (fun _ ~layer:_ -> 0);
    pe = Ir (fun p -> (Cells.linear_global_cell, bindings p));
    score_site = Traceback.Bottom_right;
    traceback =
      (fun _ -> Some { Traceback.fsm = Kdefs.Linear.fsm; stop = Traceback.At_origin });
    banding = Some (Banding.fixed bandwidth);
    traits =
      {
        Traits.adds_per_pe = 3;
        muls_per_pe = 0;
        cmps_per_pe = 5;
        ii = 1;
        logic_depth = 8;
        char_bits = Kdefs.dna_char_bits;
        param_bits = 48;
      };
  }

let kernel = kernel_with ~bandwidth:default_bandwidth

let adaptive_with ~bandwidth ~threshold =
  {
    (kernel_with ~bandwidth) with
    Kernel.id = 16;
    name = "adaptive-global-linear";
    description = "Adaptive-banded global linear alignment";
    banding = Some (Banding.adaptive ~threshold bandwidth);
  }

let kernel_adaptive =
  adaptive_with ~bandwidth:default_bandwidth ~threshold:Banding.default_threshold

let gen rng ~len =
  let reference = Dphls_alphabet.Dna.random rng len in
  let query = Dphls_seqgen.Dna_gen.mutate_point rng reference ~rate:0.08 in
  Workload.of_bases ~query ~reference

let gen_drift rng ~len =
  (* indel-rich read so the optimal path drifts off the main diagonal;
     equal lengths keep the bottom-right corner reachable by any band *)
  let reference = Dphls_alphabet.Dna.random rng len in
  let reads =
    Dphls_seqgen.Read_sim.simulate rng ~genome:reference
      ~profile:(Dphls_seqgen.Read_sim.scaled Dphls_seqgen.Read_sim.pacbio_30 0.15)
      ~read_length:len ~count:1
  in
  let raw = (List.hd reads).Dphls_seqgen.Read_sim.sequence in
  let query =
    if Array.length raw >= len then Array.sub raw 0 len
    else Array.append raw (Array.sub reference 0 (len - Array.length raw))
  in
  Workload.of_bases ~query ~reference

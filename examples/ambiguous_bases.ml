(* Handling ambiguous bases (the 'N's of real sequencing data) — the
   alphabet variation the paper mentions in §2.2.1 — as another
   user-defined kernel through the front-end.

   The alphabet becomes 5-symbol (A, C, G, T, N); an N aligned against
   anything is neutral (score 0): neither rewarded like a match nor
   punished like a mismatch, the convention used by BLAST and LASTZ.
   Against kernel #1 semantics, reads with masked stretches keep their
   flanking alignments intact instead of being dragged down.

   Run with:  dune exec examples/ambiguous_bases.exe *)

open Dphls_core
module Score = Dphls_util.Score
module Linear = Dphls_kernels.Kdefs.Linear

let n_code = 4

let encode c =
  match c with 'N' | 'n' -> n_code | _ -> Dphls_alphabet.Dna.encode c

let decode b = if b = n_code then 'N' else Dphls_alphabet.Dna.decode b

type params = { match_ : int; mismatch : int; gap : int }

let default = { match_ = 2; mismatch = -2; gap = -2 }

let ambiguous_kernel : params Kernel.t =
  let pe p (i : Pe.input) =
    let q = i.Pe.qry.(0) and r = i.Pe.rf.(0) in
    let sub =
      if q = n_code || r = n_code then 0
      else if q = r then p.match_
      else p.mismatch
    in
    let best, ptr =
      Dphls_kernels.Kdefs.best_of Score.Maximize
        [
          (Score.add i.Pe.diag.(0) sub, Linear.ptr_diag);
          (Score.add i.Pe.up.(0) p.gap, Linear.ptr_up);
          (Score.add i.Pe.left.(0) p.gap, Linear.ptr_left);
        ]
    in
    { Pe.scores = [| best |]; tb = ptr }
  in
  {
    Kernel.id = 0;
    name = "global-linear-ambiguous";
    description = "Needleman-Wunsch with neutral N bases";
    objective = Score.Maximize;
    n_layers = 1;
    score_bits = 16;
    tb_bits = 2;
    init_row = (fun p ~ref_len:_ ~layer:_ ~col -> p.gap * (col + 1));
    init_col = (fun p ~qry_len:_ ~layer:_ ~row -> p.gap * (row + 1));
    origin = (fun _ ~layer:_ -> 0);
    (* a hand-written boxed PE: engines adapt it automatically; an
       [Ir] cell would also get RTL and the datapath passes *)
    pe = Closure pe;
    score_site = Traceback.Bottom_right;
    traceback = (fun _ -> Some { Traceback.fsm = Linear.fsm; stop = Traceback.At_origin });
    banding = None;
    traits =
      {
        Traits.adds_per_pe = 3;
        muls_per_pe = 0;
        cmps_per_pe = 4;
        ii = 1;
        logic_depth = 5;
        char_bits = 3;  (* 5 symbols need 3 bits *)
        param_bits = 48;
      };
  }

let of_string s = Types.seq_of_bases (Array.init (String.length s) (fun i -> encode s.[i]))

let () =
  let reference = "ACGTACGTACGTACGTACGT" in
  let masked = "ACGTACNNNNNNACGTACGT" in
  let config = Dphls_systolic.Config.create ~n_pe:8 in
  let w = Workload.of_seqs ~query:(of_string masked) ~reference:(of_string reference) in
  let result, _ = Dphls_systolic.Engine.run config ambiguous_kernel default w in
  let golden = Dphls_reference.Ref_engine.run ambiguous_kernel default w in
  assert (Result.equal_alignment result golden);

  (* the same pair under plain #1 scoring treats every N as a mismatch *)
  let strict =
    Dphls_reference.Ref_engine.run Dphls_kernels.K01_global_linear.kernel
      { Dphls_kernels.K01_global_linear.match_ = 2; mismatch = -2; gap = -2 }
      (Workload.of_bases
         ~query:(Array.map (fun c -> if c = 'N' then 0 else Dphls_alphabet.Dna.encode c)
                   (Array.init (String.length masked) (String.get masked)))
         ~reference:(Dphls_alphabet.Dna.of_string reference))
  in
  Printf.printf "masked read vs reference\n";
  print_string
    (Alignment_view.render ~decode:(fun c -> decode c.(0)) ~query:w.Workload.query
       ~reference:w.Workload.reference ~start_row:0 ~start_col:0 result.Result.path);
  Printf.printf "ambiguous-aware score : %d (Ns neutral)\n" result.Result.score;
  Printf.printf "naive #1 score        : %d (Ns forced to a base)\n"
    strict.Result.score;
  assert (result.Result.score > strict.Result.score);
  print_endline "N-aware kernel preserves the flanking alignment."

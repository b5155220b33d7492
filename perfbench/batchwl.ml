(* The two batch workloads, short-reads and long-reads: kernel #2
   (global affine, full traceback) through Dphls.Batch with prologue
   overlap and auto engine dispatch on one domain per core. *)

module Banding = Dphls_core.Banding
module K02 = Dphls_kernels.K02_global_affine

type spec = {
  name : string;
  pairs : int -> (string * string) array;  (** from the seed *)
  band : Banding.t option;
  job_size : int;  (** pairs per timed Batch call *)
  check_sample : int;  (** pairs re-run on the reference engine *)
}

let short_reads =
  {
    name = "short-reads";
    pairs = Inputs.short_pairs;
    band = None;
    job_size = 250;
    check_sample = 24;
  }

let long_reads =
  {
    name = "long-reads";
    pairs = Inputs.long_pairs;
    band = Some (Banding.adaptive 64);
    job_size = 4;
    check_sample = 1;
  }

let n_pe = 32
let engine = Dphls.Align.Auto n_pe
let kind = Dphls.Batch.Global_affine

(* the kernel exactly as Dphls.Align runs it under the workload's band *)
let kernel spec =
  match spec.band with
  | Some b -> { K02.kernel with Dphls_core.Kernel.banding = Some b }
  | None -> K02.kernel

let run ?metrics ?tracer ~workers spec pairs =
  Dphls.Batch.align_all_overlap_report ?band:spec.band ~engine ?metrics ?tracer
    ~kind ~workers pairs

let align_one spec (query, reference) =
  Dphls.Batch.align_one ?band:spec.band ~engine kind ~query ~reference

let outputs (results : Dphls.Align.alignment array) =
  Array.to_list (Array.map (fun a -> (a.Dphls.Align.score, a.cigar)) results)

let workload (query, reference) =
  Dphls_core.Workload.of_bases
    ~query:(Dphls_alphabet.Dna.of_string query)
    ~reference:(Dphls_alphabet.Dna.of_string reference)

(* The independent check: the golden engine replaying the systolic
   engine's N_PE-row chunking, so an adaptive band prunes the same
   cells. Returns (score, cigar). *)
let reference spec pair =
  let (module R : Dphls_engines.Engine_intf.S) =
    Dphls_engines.Engines.reference
  in
  let r, _ =
    R.run
      (Dphls_engines.Engine_intf.config ~golden_chunked:true ~n_pe ())
      (kernel spec) K02.default (workload pair)
  in
  (r.Dphls_core.Result.score, Dphls_core.Result.cigar r)

(* Digest and cycle totals of the recorded canary input. *)
let canary spec (c : Expected.canary) =
  let pairs = Array.sub (spec.pairs c.Expected.seed) 0 c.Expected.pairs in
  let results, _, b = run ~workers:c.Expected.workers spec pairs in
  ( Expected.digest (outputs results),
    b.Dphls_systolic.Engine.seq_cycles,
    b.Dphls_systolic.Engine.overlapped_cycles )

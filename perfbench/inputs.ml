(* Seeded workload generation. Everything the program under test
   receives is derived here from the run's seed, so one seed always
   gives byte-identical inputs and request schedules. *)

module Rng = Dphls_util.Rng
module Dna = Dphls_alphabet.Dna
module Read_sim = Dphls_seqgen.Read_sim

let reads rng ~genome_len ~read_length ~count ~error =
  let genome = Dphls_seqgen.Dna_gen.genome rng genome_len in
  Read_sim.simulate rng ~genome
    ~profile:(Read_sim.scaled Read_sim.pacbio_30 error)
    ~read_length ~count
  |> List.map (fun r ->
         let q, t = Read_sim.pair_for_alignment r in
         (Dna.to_string q, Dna.to_string t))
  |> Array.of_list

(* short-reads: 150 bp Illumina-like reads at 3% total error against
   their source windows *)
let short_count = 2000

let short_pairs seed =
  reads (Rng.create seed) ~genome_len:200_000 ~read_length:150
    ~count:short_count ~error:0.03

(* long-reads: 4 kb noisy reads at 15% error. Traceback memory grows
   with length squared even under the adaptive band; the benchmark runs
   them in jobs of 4 reads, each from a collected heap, so peak RSS is
   one job's whatever the read count. *)
let long_count = 24

let long_pairs seed =
  reads (Rng.create (seed + 0x10_0000)) ~genome_len:200_000
    ~read_length:4000 ~count:long_count ~error:0.15

(* serve-zipf: a universe of distinct pairs of 64-256 bp at 5%
   divergence, each bound to one kernel. Rank i is the i-th most popular
   key under Zipf(1.1); kernels rotate #19 (bit-parallel route), #2, #3
   so every popularity band mixes all three. *)
let serve_keys = 20_000
let serve_kernels = [| 19; 2; 3 |]
let zipf_s = 1.1

type key = { kernel : int; qry : string; ref_seq : string }

let serve_universe seed =
  let rng = Rng.create (seed + 0x20_0000) in
  let profile = Read_sim.scaled Read_sim.pacbio_30 0.05 in
  Array.init serve_keys (fun i ->
      (* lengths are fixed by rank so the traffic's size mix, carried
         mostly by the hottest keys, does not swing with the seed *)
      let len = 64 + (i * 89 mod 193) in
      let template = Dna.random rng len in
      let read =
        List.hd
          (Read_sim.simulate rng ~genome:template ~profile ~read_length:len
             ~count:1)
      in
      {
        kernel = serve_kernels.(i mod Array.length serve_kernels);
        qry = Dna.to_string read.Read_sim.sequence;
        ref_seq = Dna.to_string template;
      })

let request_line ~id k =
  Printf.sprintf "{\"id\":\"%s\",\"kernel\":%d,\"qry\":\"%s\",\"ref\":\"%s\"}" id
    k.kernel k.qry k.ref_seq

(* The key indices of one session's [n] requests: Zipf(1.1) by
   stratified sampling, so the multiset is fixed by [n] (rank i appears
   n * p_i times, rounded by largest remainder) and the seed and session
   number decide only the order. Independent draws would let the
   session's cache hit ratio, and with it the latency median, swing
   with the seed. *)
let phase_keys ~seed ~phase n =
  let w = Array.init serve_keys (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> float_of_int n *. x /. total) w in
  let counts = Array.map truncate exact in
  let short = n - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init serve_keys Fun.id in
  Array.stable_sort
    (fun i j ->
      compare
        (exact.(j) -. float_of_int counts.(j))
        (exact.(i) -. float_of_int counts.(i)))
    by_remainder;
  for k = 0 to short - 1 do
    let i = by_remainder.(k) in
    counts.(i) <- counts.(i) + 1
  done;
  let keys =
    Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts))
  in
  Rng.shuffle (Rng.create ((seed * 31) + phase + 0x30_0000)) keys;
  keys

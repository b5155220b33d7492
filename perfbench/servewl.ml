(* The serve-zipf workload: a single-threaded open-loop generator that
   drives a `dphls serve` child over its pipes with Unix.select. It never
   blocks on a write: requests due are appended to a send buffer and
   written only when the pipe is writable, while replies are read as
   they arrive. Latency runs from a request's due time to its reply. *)

module Json = Dphls_analysis.Json
module Inputs = Perfbench_lib.Inputs

type reply = {
  ok : bool;
  score : int;
  cigar : string;
  cycles : int option;
  cached : bool;
}

type session = {
  rate : float;  (** offered requests per second *)
  sent : int;  (** requests scheduled; any left unsent count as failed *)
  replies : reply option array;  (** by request index *)
  keys : int array;  (** universe index of each request *)
  lat_ms : float array;  (** due-to-reply, answered requests only *)
  answered_open : int;  (** replies read before the write side closed *)
  max_late_ms : float;  (** worst delay between due time and enqueue *)
  backlog : int array;  (** outstanding requests at each tick *)
  child_hwm_kb : int;
  child_cpu_s : float;  (** user + system time of the child, spawn to exit *)
  anchor_s : float;
      (** median {!Perfbench_lib.Anchor.time} in the generator, one per
          tick while the session ran *)
  start_s : float;  (** spawn to first reply of the readiness probe *)
  summary : Json.t option;  (** the child's --json shutdown summary *)
}

let tick_s = 0.05
let grace_s = 0.25  (* wait for replies after the last send before closing *)
let timeout_s = 20.0  (* a reply missing this long after close has failed *)

let proc_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> go ()
      | exception End_of_file -> 0
    in
    let v = go () in
    close_in ic;
    v

let num j k =
  match Json.member k j with Some (Json.Num f) -> Some f | _ -> None

let str j k =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let parse_reply line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
    match (str j "id", str j "status") with
    | Some id, Some status ->
      let ok = status = "ok" in
      Some
        ( id,
          {
            ok;
            score = (match num j "score" with Some f -> int_of_float f | None -> 0);
            cigar = Option.value ~default:"" (str j "cigar");
            cycles = Option.map int_of_float (num j "cycles");
            cached = Json.member "cached" j = Some (Json.Bool true);
          } )
    | _ -> None)

(* Lines of [buf] complete so far; the unterminated rest stays. *)
let take_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear buf;
    Buffer.add_string buf (String.sub s (last + 1) (String.length s - last - 1));
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (String.sub s 0 last))

let probe_line = "{\"id\":\"probe\",\"kernel\":\"no-such-kernel\",\"qry\":\"A\",\"ref\":\"A\"}\n"

(* One session: a fresh child, the readiness probe, request j sent when
   due at [j / rate] seconds, a short grace for replies, then the write
   side closed and every remaining reply collected. *)
let run_session ~dphls ~universe ~keys ~rate ~trace_path =
  let window_s = float_of_int (Array.length keys) /. rate in
  let n = Array.length keys in
  let lines =
    Array.mapi
      (fun j k -> Inputs.request_line ~id:(string_of_int j) universe.(k) ^ "\n")
      keys
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let args =
    [ dphls; "serve"; "--workers"; "1"; "--json" ]
    @ match trace_path with Some p -> [ "--trace"; p ] | None -> []
  in
  let t_spawn = Unix.gettimeofday () in
  let pid =
    Unix.create_process dphls (Array.of_list args) in_r out_w err_w
  in
  List.iter Unix.close [ in_r; out_w; err_w ];
  Unix.set_nonblock in_w;
  let outbuf = Buffer.create 65536 in
  let out_off = ref 0 in
  let inbuf = Buffer.create 65536 and errbuf = Buffer.create 1024 in
  let chunk = Bytes.create 65536 in
  let replies = Array.make n None and recv_s = Array.make n nan in
  let due = Array.make n nan in
  let enq = ref 0 and answered = ref 0 and answered_open = ref 0 in
  let max_late = ref 0.0 in
  let backlog = ref [] and anchors = ref [] in
  let hwm = ref 0 in
  let write_open = ref true and out_open = ref true and err_open = ref true in
  let probe_s = ref nan in
  let t_window = ref infinity in
  let cpu0 = Unix.times () in
  let send_pending () =
    let len = Buffer.length outbuf - !out_off in
    if len > 0 then
      match
        Unix.single_write_substring in_w (Buffer.contents outbuf) !out_off len
      with
      | k ->
        out_off := !out_off + k;
        if !out_off = Buffer.length outbuf then begin
          Buffer.clear outbuf;
          out_off := 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* the child is gone: nothing more can be delivered *)
        Buffer.clear outbuf;
        out_off := 0
  in
  let on_line now line =
    match parse_reply line with
    | Some ("probe", _) -> probe_s := now -. t_spawn
    | Some (id, r) -> (
      match int_of_string_opt id with
      | Some j when j >= 0 && j < n && replies.(j) = None ->
        replies.(j) <- Some r;
        recv_s.(j) <- now;
        incr answered;
        if !write_open then incr answered_open
      | _ -> ())
    | None -> ()
  in
  let read_fd fd buf is_out =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> if is_out then out_open := false else err_open := false
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      if is_out then
        let now = Unix.gettimeofday () in
        List.iter (on_line now) (take_lines buf)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  in
  let poll ~timeout =
    let rd =
      (if !out_open then [ out_r ] else []) @ if !err_open then [ err_r ] else []
    in
    let wr =
      if !write_open && Buffer.length outbuf > !out_off then [ in_w ] else []
    in
    match Unix.select rd wr [] (Float.max 0.0 timeout) with
    | r, w, _ ->
      if w <> [] then send_pending ();
      if List.memq out_r r then read_fd out_r inbuf true;
      if List.memq err_r r then read_fd err_r errbuf false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* readiness: the probe names no kernel, so the child answers it at
     once without touching any queue, cache or counter *)
  Buffer.add_string outbuf probe_line;
  while Float.is_nan !probe_s && !out_open
        && Unix.gettimeofday () -. t_spawn < timeout_s do
    poll ~timeout:tick_s
  done;
  let t0 = Unix.gettimeofday () in
  t_window := t0 +. window_s;
  let next_tick = ref t0 in
  let sample now =
    if now >= !next_tick then begin
      if now <= !t_window then backlog := (!enq - !answered) :: !backlog;
      hwm := max !hwm (proc_hwm_kb pid);
      anchors := Perfbench_lib.Anchor.time () :: !anchors;
      next_tick := !next_tick +. tick_s
    end
  in
  (* sending window *)
  let continue = ref (not (Float.is_nan !probe_s)) in
  while !continue do
    let now = Unix.gettimeofday () in
    while !enq < n && t0 +. (float_of_int !enq /. rate) <= now do
      let d = t0 +. (float_of_int !enq /. rate) in
      due.(!enq) <- d;
      max_late := Float.max !max_late (now -. d);
      Buffer.add_string outbuf lines.(!enq);
      incr enq
    done;
    if Buffer.length outbuf > !out_off then send_pending ();
    sample now;
    let sent_all = !enq = n && Buffer.length outbuf = !out_off in
    let stop_sending =
      sent_all && (now >= !t_window +. grace_s || !answered = n)
    in
    if stop_sending || (not !out_open) || now > !t_window +. timeout_s then
      continue := false
    else
      let next_due =
        if !enq < n then t0 +. (float_of_int !enq /. rate) else now +. tick_s
      in
      poll ~timeout:(Float.min (next_due -. now) (!next_tick -. now))
  done;
  hwm := max !hwm (proc_hwm_kb pid);
  (* close the write side: the child drains what it still queues *)
  Unix.close in_w;
  write_open := false;
  let t_close = Unix.gettimeofday () in
  while (!out_open || !err_open) && Unix.gettimeofday () -. t_close < timeout_s do
    poll ~timeout:tick_s;
    if !answered < !enq then hwm := max !hwm (proc_hwm_kb pid)
  done;
  if !out_open || !err_open then (try Unix.kill pid Sys.sigkill with _ -> ());
  ignore (Unix.waitpid [] pid);
  let cpu1 = Unix.times () in
  List.iter Unix.close [ out_r; err_r ];
  let sent = n in
  let lat =
    List.filter_map
      (fun j ->
        if Float.is_nan recv_s.(j) then None
        else Some ((recv_s.(j) -. due.(j)) *. 1e3))
      (List.init sent Fun.id)
  in
  let summary =
    Buffer.contents errbuf |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           if String.length l > 0 && l.[0] = '{' then
             Result.to_option (Json.parse l)
           else None)
  in
  {
    rate;
    sent;
    replies = Array.sub replies 0 sent;
    keys = Array.sub keys 0 sent;
    lat_ms = Array.of_list lat;
    answered_open = !answered_open;
    max_late_ms = !max_late *. 1e3;
    backlog = Array.of_list (List.rev !backlog);
    child_hwm_kb = !hwm;
    child_cpu_s =
      cpu1.Unix.tms_cutime +. cpu1.Unix.tms_cstime -. cpu0.Unix.tms_cutime
      -. cpu0.Unix.tms_cstime;
    anchor_s =
      (match !anchors with
      | [] -> Perfbench_lib.Anchor.reference_s
      | l -> Perfbench_lib.Stats.median (Array.of_list l));
    start_s = !probe_s;
    summary;
  }

type conn = {
  id : int;  (** origin tag of this connection's requests; never reused *)
  fd_in : Unix.file_descr;
  fd_out : Unix.file_descr;
  line : Buffer.t;  (** the partial line, at most [max_line_bytes] *)
  mutable skipping : bool;  (** past the cap: drop input to the newline *)
  mutable reading : bool;  (** [false] once [fd_in] reached EOF *)
  out : Buffer.t;  (** response lines not yet written *)
  mutable out_off : int;  (** bytes of [out] already written *)
}

type t = {
  server : Server.t;
  max_line : int;
  conns : (int, conn) Hashtbl.t;
  mutable next_id : int;
  mutable listener : Unix.file_descr option;
  mutable accepts_left : int;
  chunk : Bytes.t;
  mutable line_hwm : int;
}

let read_chunk = 65536

(* Writes go out at most PIPE_BUF bytes at a time, and only once
   select reports the descriptor writable: such a write cannot block on
   a pipe or a socket, so the loop never has to set O_NONBLOCK on
   descriptors it shares with its parent (stdin, stdout). *)
let write_chunk = 4096

let create server =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    server;
    max_line = (Server.config server).Server.max_line_bytes;
    conns = Hashtbl.create 8;
    next_id = 0;
    listener = None;
    accepts_left = 0;
    chunk = Bytes.create read_chunk;
    line_hwm = 0;
  }

let add t ?out fd =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.conns id
    {
      id;
      fd_in = fd;
      fd_out = Option.value out ~default:fd;
      line = Buffer.create 256;
      skipping = false;
      reading = true;
      out = Buffer.create 4096;
      out_off = 0;
    }

let listen t ?(max_conns = 0) fd =
  t.listener <- Some fd;
  t.accepts_left <- (if max_conns > 0 then max_conns else max_int)

let line_high_water t = t.line_hwm
let unsent c = Buffer.length c.out - c.out_off

let deliver t (origin, r) =
  match Hashtbl.find_opt t.conns origin with
  | Some c ->
    Buffer.add_string c.out (Proto.response_line r);
    Buffer.add_char c.out '\n'
  | None -> () (* the client has gone *)

let submit_line t c line =
  if String.trim line <> "" then
    List.iter (deliver t) (Server.submit t.server ~origin:c.id line)

let oversized t =
  Proto.Error_response
    {
      rid = None;
      code = Proto.Oversized;
      message =
        Printf.sprintf
          "request line exceeds max of %d bytes; skipped to the next newline"
          t.max_line;
    }

(* split the first [len] bytes of [t.chunk] into lines; the partial
   line never grows past the cap *)
let feed t c len =
  let rec newline i =
    if i = len || Bytes.get t.chunk i = '\n' then i else newline (i + 1)
  in
  let pos = ref 0 in
  while !pos < len do
    let stop = newline !pos in
    let seg = stop - !pos in
    if c.skipping then ()
    else if Buffer.length c.line + seg > t.max_line then begin
      Buffer.reset c.line;
      c.skipping <- true;
      deliver t (c.id, oversized t)
    end
    else begin
      Buffer.add_subbytes c.line t.chunk !pos seg;
      t.line_hwm <- max t.line_hwm (Buffer.length c.line)
    end;
    if stop < len then begin
      if not c.skipping then submit_line t c (Buffer.contents c.line);
      Buffer.clear c.line;
      c.skipping <- false
    end;
    pos := stop + 1
  done

let read_conn t c =
  match Unix.read c.fd_in t.chunk 0 read_chunk with
  | 0 ->
    c.reading <- false;
    (* like input_line, a last line without a newline still counts *)
    if not c.skipping then submit_line t c (Buffer.contents c.line);
    Buffer.reset c.line
  | n -> feed t c n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> c.reading <- false

let writable fd =
  match Unix.select [] [ fd ] [] 0.0 with
  | _, [], _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let drop c =
  c.reading <- false;
  Buffer.reset c.out;
  c.out_off <- 0

(* write what the client can take now *)
let pump c =
  let stalled = ref false in
  while unsent c > 0 && not !stalled do
    if not (writable c.fd_out) then stalled := true
    else
      let n = min write_chunk (unsent c) in
      match
        Unix.single_write_substring c.fd_out
          (Buffer.sub c.out c.out_off n)
          0 n
      with
      | k ->
        c.out_off <- c.out_off + k;
        if unsent c = 0 then begin
          Buffer.clear c.out;
          c.out_off <- 0
        end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        stalled := true
      | exception Unix.Unix_error _ -> drop c
  done

let close_conn t c =
  Hashtbl.remove t.conns c.id;
  (try Unix.close c.fd_in with Unix.Unix_error _ -> ());
  if c.fd_out <> c.fd_in then
    try Unix.close c.fd_out with Unix.Unix_error _ -> ()

let accept t fd =
  (match Unix.accept ~cloexec:true fd with
  | conn, _ ->
    add t conn;
    t.accepts_left <- t.accepts_left - 1
  | exception Unix.Unix_error _ -> ());
  if t.accepts_left <= 0 then begin
    Unix.close fd;
    t.listener <- None
  end

(* one select round: accept, read, submit, flush, write *)
let round t conns ~timeout =
  let rd =
    Option.to_list t.listener
    @ List.filter_map
        (fun c ->
          if c.reading && unsent c <= t.max_line then Some c.fd_in else None)
        conns
  in
  let wr =
    List.filter_map (fun c -> if unsent c > 0 then Some c.fd_out else None) conns
  in
  (match Unix.select rd wr [] timeout with
  | ready, _, _ ->
    (match t.listener with
    | Some fd when List.mem fd ready -> accept t fd
    | _ -> ());
    List.iter (fun c -> if List.mem c.fd_in ready then read_conn t c) conns;
    List.iter (deliver t) (Server.flush t.server)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  List.iter
    (fun c ->
      pump c;
      if (not c.reading) && unsent c = 0 then close_conn t c)
    conns

let step t ~timeout =
  if Hashtbl.length t.conns = 0 && t.listener = None then false
  else begin
    round t ~timeout
      (List.sort
         (fun a b -> compare a.id b.id)
         (Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []));
    Hashtbl.length t.conns > 0 || t.listener <> None
  end

let run t = while step t ~timeout:(-1.0) do () done

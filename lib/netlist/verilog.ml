(* The control primitives mirror the simulator's semantics exactly: the
   same signed-occupancy EB, eager fork, lazy join, early-evaluation mux
   and shared-module equations, with channel-level token/anti-token
   cancellation (stops forced low when V+ and V- meet). *)

let prelude =
  {|// ---------------------------------------------------------------------
// Elastic control primitives (SELF protocol with token counterflow).
// Generated by elastic-speculation; see DESIGN.md.
// Channel wires: vp/sp forward handshake, vm/sm backward (anti-token)
// handshake.  A token and an anti-token meeting on a channel cancel:
// stops are overridden low by construction in every primitive below.
// ---------------------------------------------------------------------

// Standard elastic buffer: Lf=1, Lb=1, C=2 (paper Fig. 2(a) / Fig. 3).
// Signed occupancy n in [-2, 2]: n>0 stores tokens, n<0 anti-tokens.
module eb #(parameter WIDTH = 8) (
  input  clk, rst,
  input  i_vp, output i_sp, output i_vm, input i_sm,
  input  [WIDTH-1:0] i_d,
  output o_vp, input  o_sp, input  o_vm, output o_sm,
  output [WIDTH-1:0] o_d
);
  reg signed [2:0] n;
  reg [WIDTH-1:0] q0, q1;   // q0 is the oldest stored token
  assign i_sp = (n >= 2);
  assign i_vm = (n < 0);
  assign o_vp = (n > 0);
  assign o_sm = (n <= -2);
  assign o_d  = q0;
  // Channel-resolved boundary events (cancellation overrides stops).
  wire in_token  = i_vp & ~i_sp & ~i_vm;       // token delivered to us
  wire in_anti   = i_vm & (i_vp | ~i_sm);      // our anti-token left
  wire out_token = o_vp & (~o_sp | o_vm);      // our token left (or killed)
  wire out_anti  = o_vm & ~o_sm & ~o_vp;       // anti-token delivered to us
  always @(posedge clk) begin
    if (rst) n <= 0;
    else begin
      n <= n + (in_token ? 1 : 0) + (in_anti ? 1 : 0)
             - (out_token ? 1 : 0) - (out_anti ? 1 : 0);
      if (out_token | out_anti) q0 <= q1;      // pop / kill oldest
      if (in_token) begin
        if ((n - (out_token ? 1 : 0) - (out_anti ? 1 : 0)) <= 0) q0 <= i_d;
        else q1 <= i_d;
      end
    end
  end
endmodule

// Zero-backward-latency elastic buffer: Lf=1, Lb=0, C=1 (paper Fig. 5).
// Stop and kill traverse the controller combinationally.
module eb0 #(parameter WIDTH = 8) (
  input  clk, rst,
  input  i_vp, output i_sp, output i_vm, input i_sm,
  input  [WIDTH-1:0] i_d,
  output o_vp, input  o_sp, input  o_vm, output o_sm,
  output reg [WIDTH-1:0] o_d
);
  reg full;
  assign o_vp = full;
  wire leaving = full & (~o_sp | o_vm);
  assign i_sp = full & ~leaving;               // combinational in o_sp
  assign i_vm = ~full & o_vm;                  // anti passes through
  assign o_sm = ~full & i_sm;
  wire in_token = i_vp & ~i_sp & ~i_vm;
  always @(posedge clk) begin
    if (rst) full <= 1'b0;
    else begin
      if (in_token) begin full <= 1'b1; o_d <= i_d; end
      else if (leaving) full <= 1'b0;
    end
  end
endmodule

// Lazy join of N inputs (also the control of a plain multiplexor).
// Anti-tokens at the output fork backwards all-or-nothing.
module join_ctrl #(parameter N = 2) (
  input  [N-1:0] i_vp, output [N-1:0] i_sp,
  output [N-1:0] i_vm, input  [N-1:0] i_sm,
  output o_vp, input o_sp, input o_vm, output o_sm
);
  wire all_valid = &i_vp;
  assign o_vp = all_valid;
  wire s_eff = o_sp & ~o_vm;
  genvar g;
  generate
    for (g = 0; g < N; g = g + 1) begin : stops
      wire others = &(i_vp | (1'b1 << g));
      assign i_sp[g] = ~(others & ~s_eff);
    end
  endgenerate
  wire consumable = &(i_vp | ~i_sm);
  assign i_vm = {N{o_vm & ~o_vp & consumable}};
  assign o_sm = ~o_vp & ~consumable;
endmodule

// Eager fork to N branches with per-branch done bits and anti-token
// join counters (capacity 2 per branch).
module fork_ctrl #(parameter N = 2) (
  input  clk, rst,
  input  i_vp, output i_sp, output i_vm, input i_sm,
  output [N-1:0] o_vp, input [N-1:0] o_sp,
  input  [N-1:0] o_vm, output [N-1:0] o_sm
);
  reg [N-1:0] done;
  reg [1:0]   pend [0:N-1];
  wire [N-1:0] active;
  wire [N-1:0] t_out;
  wire [N-1:0] completion;
  genvar g;
  generate
    for (g = 0; g < N; g = g + 1) begin : branches
      assign active[g]     = ~done[g] & (pend[g] == 0);
      assign o_vp[g]       = i_vp & active[g];
      assign o_sm[g]       = (pend[g] >= 2);
      assign t_out[g]      = o_vp[g] & (~o_sp[g] | o_vm[g]);
      assign completion[g] = done[g] | (pend[g] != 0) | t_out[g];
    end
  endgenerate
  wire all_pending;
  genvar h;
  wire [N-1:0] pending_bits;
  generate
    for (h = 0; h < N; h = h + 1) begin : pends
      assign pending_bits[h] = (pend[h] != 0);
    end
  endgenerate
  assign all_pending = &pending_bits;
  assign i_sp = ~(&completion);
  assign i_vm = ~i_vp & all_pending;
  wire in_token = i_vp & ~i_sp & ~i_vm;
  wire anti_back = i_vm & ~i_sm;
  integer k;
  always @(posedge clk) begin
    if (rst) begin
      done <= 0;
      for (k = 0; k < N; k = k + 1) pend[k] <= 0;
    end
    else begin
      for (k = 0; k < N; k = k + 1) begin
        if (o_vm[k] & ~o_sm[k] & ~o_vp[k]) pend[k] <= pend[k] + 1;
      end
      for (k = 0; k < N; k = k + 1) begin
        if (in_token) begin
          if (~(done[k] | t_out[k])) pend[k] <= pend[k] - 1;
          done[k] <= 1'b0;
        end
        else begin
          if (t_out[k]) done[k] <= 1'b1;
          if (anti_back) pend[k] <= pend[k] - 1;
        end
      end
    end
  end
endmodule

// Early-evaluation multiplexor control: fires on select + selected data,
// queueing one anti-token per non-selected input per transfer (paper
// Section 2 / 4.1).  SELW = bits of the select value.
module emux_ctrl #(parameter N = 2, parameter SELW = 1) (
  input  clk, rst,
  input  sel_vp, output sel_sp, input [SELW-1:0] sel_d,
  input  [N-1:0] i_vp, output [N-1:0] i_sp,
  output [N-1:0] i_vm, input  [N-1:0] i_sm,
  output o_vp, input o_sp, input o_vm, output o_sm,
  output [N-1:0] grant
);
  reg [1:0] q [0:N-1];
  wire [SELW-1:0] sv = sel_d;
  wire sel_ok = sel_vp & (q[sv] == 0);
  assign o_vp = sel_ok & i_vp[sv];
  wire fire = o_vp & (~o_sp | o_vm);
  assign sel_sp = ~fire;
  assign o_sm = ~o_vp;
  assign grant = (o_vp ? (1'b1 << sv) : {N{1'b0}});
  genvar g;
  generate
    for (g = 0; g < N; g = g + 1) begin : kills
      wire fresh = fire & (sv != g);
      assign i_vm[g] = (q[g] != 0) | fresh;
      assign i_sp[g] = (q[g] != 0) ? 1'b0
                      : (sel_vp & (sv == g)) ? ~fire
                      : ~fresh;
    end
  endgenerate
  integer k;
  always @(posedge clk) begin
    if (rst) for (k = 0; k < N; k = k + 1) q[k] <= 0;
    else for (k = 0; k < N; k = k + 1) begin
      q[k] <= q[k]
            + ((fire & (sv != k)) ? 1 : 0)
            - ((i_vm[k] & (i_vp[k] | ~i_sm[k])) ? 1 : 0);
    end
  end
endmodule

// Stalling variable-latency unit controller (paper Fig. 6(a)): the
// datapath computes fast/slow results aside; `slow` marks tokens that
// need the second cycle.
module varlat_ctrl (
  input  clk, rst,
  input  i_vp, output i_sp, input slow,
  output o_vp, input  o_sp
);
  // 00 empty, 01 ready, 10 computing slow path
  reg [1:0] st;
  assign o_vp = (st == 2'b01);
  wire leaving = o_vp & ~o_sp;
  assign i_sp = (st == 2'b10) | (o_vp & ~leaving);
  wire in_token = i_vp & ~i_sp;
  always @(posedge clk) begin
    if (rst) st <= 2'b00;
    else if (in_token) st <= slow ? 2'b10 : 2'b01;
    else if (st == 2'b10) st <= 2'b01;
    else if (leaving) st <= 2'b00;
  end
endmodule

// Scheduler primitives driving shared_ctrl.pred (one-hot).  `served` and
// `retry` come back from the shared module / output channels.
module sched_static #(parameter N = 2, parameter HOME = 0) (
  input clk, input rst, output [N-1:0] pred
);
  assign pred = (1'b1 << HOME);
endmodule

module sched_toggle #(parameter N = 2) (
  input clk, input rst, output [N-1:0] pred
);
  reg [$clog2(N)-1:0] turn;
  assign pred = (1'b1 << turn);
  always @(posedge clk) begin
    if (rst) turn <= 0;
    else turn <= (turn == N - 1) ? 0 : turn + 1;
  end
endmodule

module sched_sticky #(parameter N = 2) (
  input clk, input rst, input retry, output [N-1:0] pred
);
  reg [$clog2(N)-1:0] cur;
  assign pred = (1'b1 << cur);
  always @(posedge clk) begin
    if (rst) cur <= 0;
    else if (retry) cur <= (cur == N - 1) ? 0 : cur + 1;
  end
endmodule

module sched_round_robin #(parameter N = 2) (
  input clk, input rst, input served, input retry, output [N-1:0] pred
);
  reg [$clog2(N)-1:0] cur;
  assign pred = (1'b1 << cur);
  always @(posedge clk) begin
    if (rst) cur <= 0;
    else if (served | retry) cur <= (cur == N - 1) ? 0 : cur + 1;
  end
endmodule

// Shared-module controller (paper Fig. 4(b)): forwards the predicted
// channel, stalls the others unless killed, passes anti-tokens through.
// The scheduler lives outside and drives `pred`.
module shared_ctrl #(parameter N = 2) (
  input  [N-1:0] pred,          // one-hot prediction from the scheduler
  input  [N-1:0] i_vp, output [N-1:0] i_sp,
  output [N-1:0] i_vm, input  [N-1:0] i_sm,
  output [N-1:0] o_vp, input [N-1:0] o_sp,
  input  [N-1:0] o_vm, output [N-1:0] o_sm,
  output [N-1:0] served
);
  genvar g;
  generate
    for (g = 0; g < N; g = g + 1) begin : ways
      wire granted = pred[g];
      assign o_vp[g] = granted & i_vp[g];
      wire fire = o_vp[g] & (~o_sp[g] | o_vm[g]);
      assign i_sp[g] = granted ? ~fire : ~o_vm[g];
      assign i_vm[g] = granted ? (o_vm[g] & ~o_vp[g]) : o_vm[g];
      assign o_sm[g] = ~o_vp[g] & i_sm[g] & ~i_vp[g];
      assign served[g] = fire;
    end
  endgenerate
endmodule
|}

let sanitize name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
       | _ -> '_')
    name

let wire_base (c : Netlist.channel) = Fmt.str "ch%d" c.Netlist.ch_id

let emit_top ppf ~top net =
  let chans = Netlist.channels net in
  Fmt.pf ppf "module %s (input clk, input rst);@." (sanitize top);
  List.iter
    (fun (c : Netlist.channel) ->
       let b = wire_base c in
       Fmt.pf ppf "  wire %s_vp, %s_sp, %s_vm, %s_sm;@." b b b b;
       Fmt.pf ppf "  wire [%d:0] %s_d;  // %s@." (c.Netlist.width - 1) b
         c.Netlist.ch_name)
    chans;
  let at node port =
    match Netlist.channel_at net node port with
    | Some c -> wire_base c
    | None -> invalid_arg "Verilog.emit: missing channel"
  in
  let vec field names =
    Fmt.str "{%s}"
      (String.concat ", "
         (List.rev_map (fun n -> n ^ "_" ^ field) names))
  in
  List.iter
    (fun (n : Netlist.node) ->
       let u = Fmt.str "u_%s" (sanitize n.Netlist.name) in
       match n.Netlist.kind with
       | Netlist.Source _ ->
         let o = at n.Netlist.id (Netlist.Out 0) in
         Fmt.pf ppf
           "  // environment input %s: drive %s_vp/%s_d, observe %s_sp@."
           n.Netlist.name o o o;
         Fmt.pf ppf "  assign %s_sm = 1'b0;@." o
       | Netlist.Sink _ ->
         let i = at n.Netlist.id (Netlist.In 0) in
         Fmt.pf ppf
           "  // environment output %s: observe %s_vp/%s_d, drive %s_sp@."
           n.Netlist.name i i i;
         Fmt.pf ppf "  assign %s_vm = 1'b0;@." i
       | Netlist.Buffer { buffer; _ } ->
         let i = at n.Netlist.id (Netlist.In 0) in
         let o = at n.Netlist.id (Netlist.Out 0) in
         let m =
           match buffer with Netlist.Eb -> "eb" | Netlist.Eb0 -> "eb0"
         in
         let w = (Netlist.channel_at net n.Netlist.id (Netlist.In 0)
                  |> Option.get).Netlist.width
         in
         Fmt.pf ppf
           "  %s #(.WIDTH(%d)) %s (.clk(clk), .rst(rst),@.    .i_vp(%s_vp), \
            .i_sp(%s_sp), .i_vm(%s_vm), .i_sm(%s_sm), .i_d(%s_d),@.    \
            .o_vp(%s_vp), .o_sp(%s_sp), .o_vm(%s_vm), .o_sm(%s_sm), \
            .o_d(%s_d));@."
           m w u i i i i i o o o o o
       | Netlist.Func f ->
         let ins =
           List.init f.Func.arity (fun i -> at n.Netlist.id (Netlist.In i))
         in
         let o = at n.Netlist.id (Netlist.Out 0) in
         Fmt.pf ppf
           "  join_ctrl #(.N(%d)) %s_j (.i_vp(%s), .i_sp(%s), .i_vm(%s), \
            .i_sm(%s),@.    .o_vp(%s_vp), .o_sp(%s_sp), .o_vm(%s_vm), \
            .o_sm(%s_sm));@."
           f.Func.arity u (vec "vp" ins) (vec "sp" ins) (vec "vm" ins)
           (vec "sm" ins) o o o o;
         Fmt.pf ppf "  f_%s %s_dp (%s.out(%s_d));@."
           (sanitize f.Func.name) u
           (String.concat ""
              (List.mapi (fun i b -> Fmt.str ".in%d(%s_d), " i b) ins))
           o
       | Netlist.Fork k ->
         let i = at n.Netlist.id (Netlist.In 0) in
         let outs =
           List.init k (fun j -> at n.Netlist.id (Netlist.Out j))
         in
         Fmt.pf ppf
           "  fork_ctrl #(.N(%d)) %s (.clk(clk), .rst(rst),@.    \
            .i_vp(%s_vp), .i_sp(%s_sp), .i_vm(%s_vm), .i_sm(%s_sm),@.    \
            .o_vp(%s), .o_sp(%s), .o_vm(%s), .o_sm(%s));@."
           k u i i i i (vec "vp" outs) (vec "sp" outs) (vec "vm" outs)
           (vec "sm" outs);
         List.iter
           (fun o -> Fmt.pf ppf "  assign %s_d = %s_d;@." o i)
           outs
       | Netlist.Mux { ways; early } ->
         let sel = at n.Netlist.id Netlist.Sel in
         let ins =
           List.init ways (fun j -> at n.Netlist.id (Netlist.In j))
         in
         let o = at n.Netlist.id (Netlist.Out 0) in
         (* Bits needed to address [ways] inputs (select values are
            0 .. ways-1). *)
         let selw =
           let rec go bits cap = if cap >= ways then bits
             else go (bits + 1) (cap * 2)
           in
           go 1 2
         in
         if early then begin
           Fmt.pf ppf
             "  wire [%d:0] %s_grant;@.  emux_ctrl #(.N(%d), .SELW(%d)) %s \
              (.clk(clk), .rst(rst),@.    .sel_vp(%s_vp), .sel_sp(%s_sp), \
              .sel_d(%s_d[%d:0]),@.    .i_vp(%s), .i_sp(%s), .i_vm(%s), \
              .i_sm(%s),@.    .o_vp(%s_vp), .o_sp(%s_sp), .o_vm(%s_vm), \
              .o_sm(%s_sm), .grant(%s_grant));@."
             (ways - 1) u ways selw u sel sel sel (selw - 1) (vec "vp" ins)
             (vec "sp" ins) (vec "vm" ins) (vec "sm" ins) o o o o u;
           Fmt.pf ppf "  assign %s_vm = 1'b0; // select is never killed@."
             sel
         end
         else begin
           let all = sel :: ins in
           Fmt.pf ppf
             "  join_ctrl #(.N(%d)) %s (.i_vp(%s), .i_sp(%s), .i_vm(%s), \
              .i_sm(%s),@.    .o_vp(%s_vp), .o_sp(%s_sp), .o_vm(%s_vm), \
              .o_sm(%s_sm));@."
             (ways + 1) u (vec "vp" all) (vec "sp" all) (vec "vm" all)
             (vec "sm" all) o o o o
         end;
         (* Datapath select: a priority chain over the select value.  The
            2-way form keeps the historical single-bit test. *)
         if ways = 2 then
           Fmt.pf ppf "  assign %s_d = %s_d[0] ? %s_d : %s_d;@." o sel
             (List.nth ins 1) (List.nth ins 0)
         else begin
           let arms =
             List.mapi
               (fun j b ->
                  if j = ways - 1 then Fmt.str "%s_d" b
                  else
                    Fmt.str "(%s_d[%d:0] == %d'd%d) ? %s_d : " sel
                      (selw - 1) selw j b)
               ins
           in
           Fmt.pf ppf "  assign %s_d = %s;@." o (String.concat "" arms)
         end
       | Netlist.Shared { ways; f; sched; hinted } ->
         let ins =
           List.init ways (fun j -> at n.Netlist.id (Netlist.In j))
         in
         let outs =
           List.init ways (fun j -> at n.Netlist.id (Netlist.Out j))
         in
         Fmt.pf ppf "  wire [%d:0] %s_pred, %s_served;@." (ways - 1) u u;
         let retry_expr =
           Fmt.str "(%s)"
             (String.concat " | "
                (List.map (fun o -> Fmt.str "(%s_vp & %s_sp)" o o) outs))
         in
         (match sched with
          | Elastic_sched.Scheduler.Static home ->
            Fmt.pf ppf
              "  sched_static #(.N(%d), .HOME(%d)) %s_sched (.clk(clk),                .rst(rst), .pred(%s_pred));@."
              ways home u u
          | Elastic_sched.Scheduler.Toggle ->
            Fmt.pf ppf
              "  sched_toggle #(.N(%d)) %s_sched (.clk(clk), .rst(rst),                .pred(%s_pred));@."
              ways u u
          | Elastic_sched.Scheduler.Sticky ->
            Fmt.pf ppf
              "  sched_sticky #(.N(%d)) %s_sched (.clk(clk), .rst(rst),                .retry(%s), .pred(%s_pred));@."
              ways u retry_expr u
          | Elastic_sched.Scheduler.Round_robin ->
            Fmt.pf ppf
              "  sched_round_robin #(.N(%d)) %s_sched (.clk(clk),                .rst(rst), .served(|%s_served), .retry(%s),                .pred(%s_pred));@."
              ways u u retry_expr u
          | Elastic_sched.Scheduler.Two_bit
          | Elastic_sched.Scheduler.Scripted _
          | Elastic_sched.Scheduler.Noisy_oracle _
          | Elastic_sched.Scheduler.External
          | Elastic_sched.Scheduler.Prefer _
          | Elastic_sched.Scheduler.Hinted_replay
          | Elastic_sched.Scheduler.Gshare _ ->
            Fmt.pf ppf
              "  // scheduler %s%s: bind %s_pred to user RTL@."
              (Elastic_sched.Scheduler.spec_name sched)
              (if hinted then " (hinted)" else "")
              u);
         Fmt.pf ppf
           "  shared_ctrl #(.N(%d)) %s (.pred(%s_pred),@.    .i_vp(%s), \
            .i_sp(%s), .i_vm(%s), .i_sm(%s),@.    .o_vp(%s), .o_sp(%s), \
            .o_vm(%s), .o_sm(%s), .served(%s_served));@."
           ways u u (vec "vp" ins) (vec "sp" ins) (vec "vm" ins)
           (vec "sm" ins) (vec "vp" outs) (vec "sp" outs) (vec "vm" outs)
           (vec "sm" outs) u;
         List.iteri
           (fun j o ->
              Fmt.pf ppf "  f_%s %s_dp%d (.in0(%s_d), .out(%s_d));@."
                (sanitize f.Func.name) u j
                (List.nth ins (min j (ways - 1)))
                o)
           outs
       | Netlist.Varlat { fast; slow; err } ->
         let i = at n.Netlist.id (Netlist.In 0) in
         let o = at n.Netlist.id (Netlist.Out 0) in
         Fmt.pf ppf
           "  // stalling variable-latency unit %s: fast=f_%s slow=f_%s \
            err=f_%s@."
           n.Netlist.name (sanitize fast.Func.name)
           (sanitize slow.Func.name) (sanitize err.Func.name);
         Fmt.pf ppf "  wire %s_slow;@." u;
         Fmt.pf ppf "  f_%s %s_errdp (.in0(%s_d), .out(%s_slow));@."
           (sanitize err.Func.name) u i u;
         Fmt.pf ppf
           "  varlat_ctrl %s (.clk(clk), .rst(rst), .i_vp(%s_vp), \
            .i_sp(%s_sp), .slow(%s_slow), .o_vp(%s_vp), .o_sp(%s_sp));@."
           u i i u o o;
         Fmt.pf ppf "  assign %s_vm = 1'b0; assign %s_sm = 1'b1;@." i o)
    (Netlist.nodes net);
  Fmt.pf ppf "endmodule@."

let emit ppf ~top net =
  Netlist.validate_exn net;
  Fmt.pf ppf "%s@." prelude;
  emit_top ppf ~top net

let to_string ~top net = Fmt.str "%a" (fun ppf () -> emit ppf ~top net) ()

let save path ~top net =
  Out_channel.with_open_text path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      emit ppf ~top net;
      Format.pp_print_flush ppf ())

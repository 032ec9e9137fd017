//! Malformed-`.scn` corpus: one input per error path of the scenario
//! parser (surface syntax, value grammar, every section, every kind's
//! cross-field rules), each pinned to its exact `Display` string, so a
//! refactor of the parser cannot silently change a diagnostic.
//!
//! The corpus is a table of edits to six valid bases — one per kind —
//! so it doubles as a seed corpus for mutation fuzzing: [`inputs`]
//! yields every materialized input.

use dctcp_scenario::ScenarioSpec;

const LONG: &str = "\
[scenario]
name = t
kind = long_lived

[topology]
bottleneck = 1 Gbps
rtt = 100 us

[run]
flows = 2, 4
warmup = 5 ms
duration = 10 ms

[marking \"dc\"]
scheme = dctcp
k = 20 pkts

[marking \"dt\"]
scheme = dt-dctcp
k1 = 15 pkts
k2 = 25 pkts
";

const INCAST: &str = "\
[scenario]
name = q
kind = incast

[run]
flows = 4, 8
rounds = 2
seeds = 1, 2
bytes_per_flow = 64 KB

[marking \"dc\"]
scheme = dctcp
k = 32 KB
";

const QUERY: &str = "\
[scenario]
name = pa
kind = partition_aggregate

[run]
flows = 4, 8
total_bytes = 1 MB

[marking \"dc\"]
scheme = dctcp
k = 32 KB
";

const COLL: &str = "\
[scenario]
name = c
kind = collective

[topology fat_tree]
k = 4
hosts_per_edge = 2
core = 1 Gbps
ecmp_seed = 7

[workload collective]
pattern = ring_allreduce
phase_gap = 500 us
horizon = 200 ms

[run]
flows = 8, 16
bytes_per_flow = 32 KB
seeds = 1, 2

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
";

const FLUID: &str = "\
[scenario]
name = f
kind = fluid

[topology]
rtt = 300 us

[run]
flows = 8, 100000
warmup = 20 ms
duration = 30 ms
dt = 2 us

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
";

const FCT: &str = "\
[scenario]
name = churn
kind = fct

[topology]
bottleneck = 10 Gbps
rtt = 100 us

[run]
flows = 8
warmup = 5 ms
duration = 20 ms
seeds = 1, 2

[workload fct]
load = 0.8
size_dist = web_search
racks = 2
slots = 1024
drain = 50 ms

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
";

/// `(base, from, to, expected error)`: the input is `base` with the
/// first `from` replaced by `to`, or with `to` appended when `from` is
/// empty.
#[rustfmt::skip]
const CORPUS: &[(&str, &str, &str, &str)] = &[
    // Surface syntax.
    (LONG, "[run]", "[run", "line 9: unterminated section header `[run`"),
    (LONG, "[topology]", "[to po logy]", "line 5: bad section name `to po logy`"),
    (LONG, "[marking \"dc\"]", "[marking \"dc]", "line 14: unterminated section label quote"),
    (LONG, "[marking \"dc\"]", "[marking \"dc\" x]", "line 14: trailing text after section label"),
    (LONG, "", "\n[run]\nflows = 2\n", "line 23: duplicate section [run]"),
    (LONG, "warmup = 5 ms", "warmup 5 ms", "line 11: expected `key = value` or `[section]`, got `warmup 5 ms`"),
    (LONG, "warmup = 5 ms", "= 5 ms", "line 11: empty key before `=`"),
    (LONG, "[scenario]", "name = x\n[scenario]", "line 1: `name` appears before any [section] header"),
    (LONG, "warmup = 5 ms", "warmup = 5 ms\nwarmup = 6 ms", "line 12: duplicate key `warmup`"),
    // Value grammar.
    (LONG, "warmup = 5 ms", "warmup = abc ms", "line 11: bad value for `warmup`: `` is not a number"),
    (LONG, "warmup = 5 ms", "warmup = 5", "line 11: bad value for `warmup`: missing duration unit (ns/us/ms/s)"),
    (LONG, "duration = 10 ms", "duration = 10 fortnights", "line 12: bad value for `duration`: unknown duration unit `fortnights` (ns/us/ms/s)"),
    (LONG, "warmup = 5 ms", "warmup = -5 ms", "line 11: `warmup` out of range: duration must not be negative"),
    (LONG, "bottleneck = 1 Gbps", "bottleneck = fast Gbps", "line 6: bad value for `bottleneck`: `` is not a number"),
    (LONG, "bottleneck = 1 Gbps", "bottleneck = 1", "line 6: bad value for `bottleneck`: missing rate unit (Gbps/Mbps/Kbps/bps)"),
    (LONG, "bottleneck = 1 Gbps", "bottleneck = 1 GB", "line 6: bad value for `bottleneck`: unknown rate unit `GB` (Gbps/Mbps/Kbps/bps)"),
    (LONG, "bottleneck = 1 Gbps", "bottleneck = 0 Gbps", "line 6: `bottleneck` out of range: rate must be positive"),
    (LONG, "k = 20 pkts", "k = 2.5 pkts", "line 16: bad value for `k`: `2.5` is not a whole number"),
    (LONG, "k = 20 pkts", "k = 20", "line 16: bad value for `k`: missing unit (pkts/KB/MB/bytes)"),
    (LONG, "k = 20 pkts", "k = 20 frames", "line 16: bad value for `k`: unknown unit `frames` (pkts/KB/MB/bytes)"),
    (LONG, "k = 20 pkts", "k = 0 pkts", "line 16: `k` out of range: level must be positive"),
    (INCAST, "bytes_per_flow = 64 KB", "bytes_per_flow = 3 pkts", "line 9: bad value for `bytes_per_flow`: expected a byte size (KB/MB/bytes), not pkts"),
    (LONG, "", "\n[transport]\ng = fast\n", "line 24: bad value for `g`: `fast` is not a number"),
    (INCAST, "rounds = 2", "rounds = many", "line 7: bad value for `rounds`: `many` is not a whole number"),
    (LONG, "flows = 2, 4", "flows = 2,,4", "line 10: bad value for `flows`: empty element in list"),
    (LONG, "flows = 2, 4", "flows = 2, four", "line 10: bad value for `flows`: `four` is not a whole number"),
    (LONG, "flows = 2, 4", "flows =", "line 10: bad value for `flows`: empty element in list"),
    (LONG, "", "\n[faults]\nbleach = 1 ms\n", "line 24: bad value for `bleach`: expected `<from> .. <until>`"),
    (LONG, "", "\n[faults]\nbleach = 2 ms .. 1 ms\n", "line 24: `bleach` out of range: window start must precede its end"),
    // [scenario]
    (LONG, "", "\n[bogus]\n", "line 23: unknown section [bogus]"),
    (LONG, "[scenario]\nname = t\nkind = long_lived\n", "", "missing required section [scenario]"),
    (LONG, "kind = long_lived", "kind = long_lived\nauthor = me", "line 4: unknown key `author` in [scenario]"),
    (LONG, "name = t\n", "", "missing required key `name` in [scenario]"),
    (LONG, "name = t", "name = a b", "line 2: bad value for `name`: name must be a non-empty token without spaces or `/`"),
    (LONG, "kind = long_lived\n", "", "missing required key `kind` in [scenario]"),
    (LONG, "kind = long_lived", "kind = bursty", "line 3: bad value for `kind`: unknown kind `bursty` (long_lived/incast/partition_aggregate/collective/fluid/fct)"),
    // [topology]
    (COLL, "[topology fat_tree]", "[topology]", "line 5: collective scenarios take `[topology fat_tree]`"),
    (COLL, "[topology fat_tree]", "[topology dragonfly]", "line 5: unknown topology `dragonfly` (collective scenarios use fat_tree)"),
    (INCAST, "[run]", "[topology fat_tree]\n\n[run]", "line 5: `[topology fat_tree]` is only valid for collective scenarios; incast scenarios take a bare [topology]"),
    (FLUID, "[topology]", "[topology fat_tree]", "line 5: `[topology fat_tree]` is only valid for collective scenarios; fluid scenarios take a bare [topology]"),
    (FCT, "[topology]", "[topology fat_tree]", "line 5: `[topology fat_tree]` is only valid for collective scenarios; fct scenarios take a bare [topology]"),
    (LONG, "[topology]", "[topology fat_tree]", "line 5: `[topology fat_tree]` is only valid for collective scenarios; long_lived scenarios take a bare [topology]"),
    (LONG, "rtt = 100 us", "rtt = 100 us\nmtu = 1500 bytes", "line 8: unknown key `mtu` in [topology]"),
    (LONG, "rtt = 100 us", "rtt = 0 us", "line 7: `rtt` out of range: must be positive"),
    (INCAST, "[run]", "[topology]\nbottleneck = 1 Gbps\n\n[run]", "line 6: unknown key `bottleneck` in [topology]"),
    (INCAST, "[run]", "[topology]\ndelay = 0 us\n\n[run]", "line 6: `delay` out of range: must be positive"),
    (COLL, "ecmp_seed = 7", "ecmp_seed = 7\nspines = 4", "line 10: unknown key `spines` in [topology \"fat_tree\"]"),
    (COLL, "k = 4", "k = 5", "line 6: `k` out of range: fat-tree arity must be even and in 4..=16, got 5"),
    (COLL, "k = 4", "k = 18", "line 6: `k` out of range: fat-tree arity must be even and in 4..=16, got 18"),
    (COLL, "hosts_per_edge = 2", "hosts_per_edge = 0", "line 7: `hosts_per_edge` out of range: must be positive"),
    (COLL, "core = 1 Gbps", "core = 1 Gbps\ndelay = 0 us", "line 9: `delay` out of range: must be positive"),
    (COLL, "ecmp_seed = 7", "ecmp_seed = -7", "line 9: bad value for `ecmp_seed`: `-7` is not a whole number"),
    // [transport]
    (LONG, "", "\n[transport]\nmss = 1500\n", "line 24: unknown key `mss` in [transport]"),
    (LONG, "", "\n[transport]\ncc = cubic\n", "line 24: bad value for `cc`: unknown congestion control `cubic` (dctcp/d2tcp)"),
    (LONG, "", "\n[transport]\ng = 1.5\n", "line 24: `g` out of range: EWMA gain must be in (0, 1], got 1.5"),
    (LONG, "", "\n[transport]\nrto_min = 0 ms\n", "line 24: `rto_min` out of range: must be positive"),
    (LONG, "", "\n[transport]\ndelayed_ack = 0\n", "line 23: `transport` out of range: delayed_ack must be >= 1"),
    (LONG, "", "\n[transport]\ndelack_timeout = 0 ms\n", "line 24: `delack_timeout` out of range: must be positive"),
    // [run], per kind.
    (LONG, "[run]\nflows = 2, 4\nwarmup = 5 ms\nduration = 10 ms\n", "", "missing required section [run]"),
    (LONG, "flows = 2, 4\n", "", "missing required key `flows` in [run]"),
    (LONG, "flows = 2, 4", "flows = 0, 4", "line 10: `flows` out of range: flow counts must be in 1..=512, got 0"),
    (LONG, "flows = 2, 4", "flows = 2, 513", "line 10: `flows` out of range: flow counts must be in 1..=512, got 513"),
    (LONG, "duration = 10 ms", "duration = 10 ms\nseeds = 1", "line 13: unknown key `seeds` in [run]"),
    (LONG, "duration = 10 ms", "duration = 0 ms", "line 12: `duration` out of range: must be positive"),
    (LONG, "duration = 10 ms", "duration = 10 ms\ntrace = 0 us", "line 13: `trace` out of range: must be positive"),
    (FLUID, "flows = 8, 100000", "flows = 8, 1000001", "line 9: `flows` out of range: flow counts must be in 1..=1000000, got 1000001"),
    (FLUID, "dt = 2 us", "dt = 2 us\nstagger = 1 us", "line 13: unknown key `stagger` in [run]"),
    (FLUID, "dt = 2 us", "dt = 0 us", "line 12: `dt` out of range: must be positive"),
    (FLUID, "dt = 2 us", "dt = 500 us", "line 12: `dt` out of range: integrator step must not exceed the 300000 ns rtt, got 500000 ns"),
    (FLUID, "rtt = 300 us", "rtt = 10 s", "line 12: `dt` out of range: the 10000000000 ns rtt spans more than 1048576 integrator steps of 2000 ns"),
    (FLUID, "dt = 2 us", "dt = 2 us\ntrace = 1 us", "line 13: `trace` out of range: trace stride must be at least the integrator step `dt`"),
    (COLL, "seeds = 1, 2", "seeds = 1, 2\nrounds = 2", "line 20: unknown key `rounds` in [run]"),
    (COLL, "seeds = 1, 2", "seeds = 1,", "line 19: bad value for `seeds`: empty element in list"),
    (COLL, "flows = 8, 16", "flows = 8, 17", "line 17: `flows` out of range: collective participants must be in 2..=16 (k=4 fat-tree hosts), got 17"),
    (COLL, "flows = 8, 16", "flows = 1, 8", "line 17: `flows` out of range: collective participants must be in 2..=16 (k=4 fat-tree hosts), got 1"),
    (FCT, "seeds = 1, 2", "seeds = 1, 2\ntrace = 1 us", "line 14: unknown key `trace` in [run]"),
    (FCT, "seeds = 1, 2", "seeds = x", "line 13: bad value for `seeds`: `x` is not a whole number"),
    (FCT, "flows = 8", "flows = 0", "line 10: `flows` out of range: flow counts must be in 1..=512, got 0"),
    (FCT, "flows = 8", "flows = 7", "line 10: `flows` out of range: fct source counts must be positive multiples of racks = 2, got 7"),
    (INCAST, "rounds = 2", "rounds = 2\ndt = 1 us", "line 8: unknown key `dt` in [run]"),
    (INCAST, "rounds = 2", "rounds = 0", "line 7: `rounds` out of range: rounds must be in 1..=100, got 0"),
    (INCAST, "rounds = 2", "rounds = 101", "line 7: `rounds` out of range: rounds must be in 1..=100, got 101"),
    (INCAST, "bytes_per_flow = 64 KB", "total_bytes = 1 MB", "line 9: bad value for `total_bytes`: incast scenarios take `bytes_per_flow`"),
    (QUERY, "total_bytes = 1 MB", "bytes_per_flow = 64 KB", "line 7: bad value for `bytes_per_flow`: partition_aggregate scenarios take `total_bytes`"),
    (INCAST, "seeds = 1, 2", "seeds = 1, two", "line 8: bad value for `seeds`: `two` is not a whole number"),
    // [workload …]
    (LONG, "", "\n[workload collective]\npattern = incast\n", "line 23: [workload] sections are only valid for collective and fct scenarios, not long_lived"),
    (INCAST, "", "\n[workload collective]\npattern = incast\n", "line 15: [workload] sections are only valid for collective and fct scenarios, not incast"),
    (QUERY, "", "\n[workload fct]\nload = 0.5\n", "line 13: [workload] sections are only valid for collective and fct scenarios, not partition_aggregate"),
    (FLUID, "", "\n[workload fct]\nload = 0.5\n", "line 18: [workload] sections are only valid for collective and fct scenarios, not fluid"),
    (COLL, "[workload collective]\npattern = ring_allreduce\nphase_gap = 500 us\nhorizon = 200 ms\n", "", "missing required section [workload collective]"),
    (COLL, "[workload collective]", "[workload fct]", "line 11: collective scenarios take `[workload collective]`"),
    (COLL, "horizon = 200 ms", "horizon = 200 ms\nsize = 1 MB", "line 15: unknown key `size` in [workload \"collective\"]"),
    (COLL, "pattern = ring_allreduce\n", "", "missing required key `pattern` in [workload \"collective\"]"),
    (COLL, "pattern = ring_allreduce", "pattern = all_to_some", "line 12: bad value for `pattern`: unknown pattern `all_to_some` (ring_allreduce/tree_allreduce/permutation/incast)"),
    (COLL, "horizon = 200 ms", "horizon = 0 ms", "line 14: `horizon` out of range: must be positive"),
    (FCT, "[workload fct]\nload = 0.8\nsize_dist = web_search\nracks = 2\nslots = 1024\ndrain = 50 ms\n", "", "missing required section [workload fct]"),
    (FCT, "[workload fct]", "[workload collective]", "line 15: fct scenarios take `[workload fct]`"),
    (FCT, "drain = 50 ms", "drain = 50 ms\nburst = 2", "line 21: unknown key `burst` in [workload \"fct\"]"),
    (FCT, "load = 0.8\n", "", "missing required key `load` in [workload \"fct\"]"),
    (FCT, "load = 0.8", "load = 1.2", "line 16: `load` out of range: offered load must be in (0, 1), got 1.2"),
    (FCT, "load = 0.8", "load = 0", "line 16: `load` out of range: offered load must be in (0, 1), got 0"),
    (FCT, "size_dist = web_search", "size_dist = pareto", "line 17: bad value for `size_dist`: unknown size distribution `pareto` (web_search/data_mining)"),
    (FCT, "racks = 2", "racks = 0", "line 18: `racks` out of range: must be positive"),
    (FCT, "slots = 1024", "slots = 0", "line 19: `slots` out of range: must be positive"),
    (FCT, "slots = 1024", "slots = 1024\nshort_bytes = 200 KB", "line 15: `short_bytes` out of range: size classes need 0 < short_bytes < long_bytes, got 204800 / 100000"),
    (FCT, "drain = 50 ms", "drain = 50 ms\ndeadline_slack = 0", "line 21: `deadline_slack` out of range: deadline slack must be a positive number"),
    // [marking "…"]
    (LONG, "[marking \"dt\"]", "[marking]", "line 18: marking sections need a label: [marking \"dctcp\"]"),
    (LONG, "[marking \"dc\"]\nscheme = dctcp\nk = 20 pkts\n\n[marking \"dt\"]\nscheme = dt-dctcp\nk1 = 15 pkts\nk2 = 25 pkts\n", "", "missing required section [marking \"…\"]"),
    (LONG, "scheme = dctcp\n", "", "missing required key `scheme` in [marking \"dc\"]"),
    (LONG, "scheme = dctcp", "scheme = blue", "line 15: bad value for `scheme`: unknown scheme `blue` (droptail/dctcp/dt-dctcp/schmitt/red/codel/pie)"),
    (LONG, "k = 20 pkts", "k = 20 pkts\nk1 = 10 pkts", "line 17: unknown key `k1` in [marking \"dc\"]"),
    (LONG, "k = 20 pkts\n", "", "missing required key `k` in [marking \"dc\"]"),
    (LONG, "k1 = 15 pkts", "k1 = 30 pkts", "line 18: `marking \"dt\"` out of range: K1 must not exceed K2, got K1 = 30 pkts, K2 = 25 pkts"),
    (FLUID, "k = 40 pkts", "k = 60 KB", "line 14: bad value for `marking \"dc\"`: fluid scenarios support only dctcp / dt-dctcp markings with packet-denominated thresholds"),
    (FLUID, "scheme = dctcp\nk = 40 pkts", "scheme = red\nmin = 10 pkts\nmax = 50 pkts", "line 14: bad value for `marking \"dc\"`: fluid scenarios support only dctcp / dt-dctcp markings with packet-denominated thresholds"),
    // [faults]
    (COLL, "", "\n[faults]\nbleach = 1 ms .. 2 ms\n", "line 25: bad value for `faults`: fault plans are only supported for long_lived scenarios"),
    (FLUID, "", "\n[faults]\nbleach = 1 ms .. 2 ms\n", "line 18: bad value for `faults`: fault plans are only supported for long_lived scenarios"),
    (FCT, "", "\n[faults]\nbleach = 1 ms .. 2 ms\n", "line 26: bad value for `faults`: fault plans are only supported for long_lived scenarios"),
    (INCAST, "", "\n[faults]\nbleach = 1 ms .. 2 ms\n", "line 15: bad value for `faults`: fault plans are only supported for long_lived scenarios"),
    (LONG, "", "\n[faults]\nflap = 1 ms .. 2 ms\n", "line 24: unknown key `flap` in [faults]"),
    // [limits]
    (LONG, "", "\n[limits]\ntimeout = 1 s\n", "line 24: unknown key `timeout` in [limits]"),
    (LONG, "", "\n[limits]\ndeadline = 0 s\n", "line 24: `deadline` out of range: must be positive"),
    (LONG, "", "\n[limits]\nretries = 9\n", "line 24: `retries` out of range: retries must be at most 8, got 9"),
    (LONG, "", "\n[limits]\ninject_panic = dc:2\n", "line 24: bad value for `inject_panic`: expected `marking:flows:seed`, got `dc:2`"),
    (LONG, "", "\n[limits]\ninject_panic = nosuch:2:1\n", "line 24: bad value for `inject_panic`: no [marking \"nosuch\"] section in this scenario"),
    (LONG, "", "\n[limits]\ninject_stall = dc:two:1\n", "line 24: bad value for `inject_stall`: bad flow count `two`"),
    (LONG, "", "\n[limits]\ninject_flaky = dc:3:1\n", "line 24: bad value for `inject_flaky`: flow count 3 is not in the sweep"),
    (LONG, "", "\n[limits]\ninject_panic = dc:2:x\n", "line 24: bad value for `inject_panic`: bad seed `x`"),
    (LONG, "", "\n[limits]\ninject_panic = dc:2:7\n", "line 24: bad value for `inject_panic`: seed 7 is not in the seed list"),
    // [expect "…"]
    (LONG, "", "\n[expect]\ncheck = metric_range\nmetric = drops\nmax = 0\n", "line 23: expect sections need a label: [expect \"low-variance\"]"),
    (LONG, "", "\n[expect \"e\"]\ncheck = metric_range\nmax = 0\n", "missing required key `metric` in [expect \"e\"]"),
    (LONG, "", "\n[expect \"e\"]\ncheck = metric_range\nmetric = fct_short_p99_ms\nmax = 0\n", "line 25: bad value for `metric`: unknown metric `fct_short_p99_ms` for kind long_lived (one of: queue_mean, queue_std, queue_max, osc_amplitude, osc_max_amplitude, osc_cycles, mark_rate, marks, drops, timeouts, alpha_mean, utilization, goodput_gbps)"),
    (LONG, "", "\n[expect \"e\"]\nmetric = drops\nmax = 0\n", "missing required key `check` in [expect \"e\"]"),
    (LONG, "", "\n[expect \"e\"]\ncheck = between\nmetric = drops\n", "line 24: bad value for `check`: unknown check `between` (metric_range/ordered/monotone_increasing/ratio)"),
    (LONG, "", "\n[expect \"e\"]\ncheck = metric_range\nmetric = drops\nmax = 0\nlesser = dt\n", "line 27: unknown key `lesser` in [expect \"e\"]"),
    (LONG, "", "\n[expect \"e\"]\ncheck = metric_range\nmetric = drops\nmarking = pie\nmax = 0\n", "line 26: bad value for `marking`: no [marking \"pie\"] section in this scenario"),
    (LONG, "", "\n[expect \"e\"]\ncheck = metric_range\nmetric = drops\n", "line 24: bad value for `check`: metric_range needs `min`, `max` or both"),
    (LONG, "", "\n[expect \"e\"]\ncheck = metric_range\nmetric = drops\nmin = 2\nmax = 1\n", "line 24: `min` out of range: min 2 exceeds max 1"),
    (LONG, "", "\n[expect \"e\"]\ncheck = ordered\nmetric = queue_std\nlesser = dt\ngreater = dt\n", "line 27: bad value for `greater`: lesser and greater must differ"),
    (LONG, "", "\n[expect \"e\"]\ncheck = ordered\nmetric = queue_std\ngreater = dc\n", "missing required key `lesser` in [expect \"e\"]"),
    (LONG, "", "\n[expect \"e\"]\ncheck = ordered\nmetric = queue_std\nlesser = dt\ngreater = dc\nfrom_flows = x\n", "line 28: bad value for `from_flows`: `x` is not a whole number"),
    (LONG, "", "\n[expect \"e\"]\ncheck = monotone_increasing\nmetric = queue_std\nmarking = dc\nmin_ratio = 0\n", "line 27: `min_ratio` out of range: min_ratio must be a positive number"),
    (LONG, "", "\n[expect \"e\"]\ncheck = ratio\nmetric = queue_std\nlesser = dt\ngreater = dt\nmax_ratio = 0.5\n", "line 27: bad value for `greater`: lesser and greater must differ"),
    (LONG, "", "\n[expect \"e\"]\ncheck = ratio\nmetric = queue_std\nlesser = dt\ngreater = pie\nmax_ratio = 0.5\n", "line 27: bad value for `marking`: no [marking \"pie\"] section in this scenario"),
    (LONG, "", "\n[expect \"e\"]\ncheck = ratio\nmetric = queue_std\nlesser = dt\ngreater = dc\nmax_ratio = 0\n", "line 28: `max_ratio` out of range: max_ratio must be a positive number"),
    (LONG, "", "\n[expect \"e\"]\ncheck = ratio\nmetric = queue_std\nlesser = dt\ngreater = dc\nmax_ratio = 0.5\nmin_ratio = 0.5\n", "line 29: `min_ratio` out of range: min_ratio must be in [0, 0.5)"),
    // [xval "…"]
    (LONG, "", "\n[xval \"x\"]\npacket = p\nmetric = queue_std\nmarking = dc\nflows = 2\nmax_rel_err = 0.5\n", "line 23: [xval] sections are only valid for fluid scenarios, not long_lived"),
    (FLUID, "", "\n[xval]\npacket = p\nmetric = queue_std\nmarking = dc\nflows = 8\nmax_rel_err = 0.5\n", "line 18: xval sections need a label: [xval \"amplitude-vs-fig05\"]"),
    (FLUID, "", "\n[xval \"x\"]\npacket = p\nmetric = queue_std\nmarking = dc\nflows = 8\nmax_rel_err = 0.5\ntolerance = 1\n", "line 24: unknown key `tolerance` in [xval \"x\"]"),
    (FLUID, "", "\n[xval \"x\"]\nmetric = queue_std\nmarking = dc\nflows = 8\nmax_rel_err = 0.5\n", "missing required key `packet` in [xval \"x\"]"),
    (FLUID, "", "\n[xval \"x\"]\npacket = a b\nmetric = queue_std\nmarking = dc\nflows = 8\nmax_rel_err = 0.5\n", "line 19: bad value for `packet`: packet must be a scenario name without spaces or `/`"),
    (FLUID, "", "\n[xval \"x\"]\npacket = p\nmetric = drops\nmarking = dc\nflows = 8\nmax_rel_err = 0.5\n", "line 20: bad value for `metric`: unknown fluid metric `drops` (one of: queue_mean, queue_std, queue_max, osc_amplitude, osc_freq_hz, osc_cycles, w_mean, alpha_mean, marking_duty, utilization)"),
    (FLUID, "", "\n[xval \"x\"]\npacket = p\nmetric = queue_std\nmarking = dt\nflows = 8\nmax_rel_err = 0.5\n", "line 21: bad value for `marking`: no [marking \"dt\"] section in this scenario"),
    (FLUID, "", "\n[xval \"x\"]\npacket = p\nmetric = queue_std\nmarking = dc\nflows = 16\nmax_rel_err = 0.5\n", "line 22: bad value for `flows`: flow count 16 is not in this scenario's sweep"),
    (FLUID, "", "\n[xval \"x\"]\npacket = p\nmetric = queue_std\nmarking = dc\nflows = 8,\nmax_rel_err = 0.5\n", "line 22: bad value for `flows`: empty element in list"),
    (FLUID, "", "\n[xval \"x\"]\npacket = p\nmetric = queue_std\nmarking = dc\nflows = 8\nmax_rel_err = -1\n", "line 23: `max_rel_err` out of range: max_rel_err must be a positive number"),
    (FLUID, "", "\n[xval \"x\"]\npacket = p\nmetric = queue_std\nmarking = dc\nflows = 8\n", "missing required key `max_rel_err` in [xval \"x\"]"),
];

/// Every corpus input with the error it must produce.
fn inputs() -> impl Iterator<Item = (String, &'static str)> {
    CORPUS.iter().map(|&(base, from, to, want)| {
        let src = if from.is_empty() {
            format!("{base}{to}")
        } else {
            assert!(base.contains(from), "corpus edit `{from}` matches nothing");
            base.replacen(from, to, 1)
        };
        (src, want)
    })
}

#[test]
fn every_malformed_input_fails_with_its_pinned_diagnostic() {
    let mut wrong = Vec::new();
    for (i, (src, want)) in inputs().enumerate() {
        let got = match ScenarioSpec::parse(&src) {
            Ok(_) => "<parsed>".to_string(),
            Err(e) => e.to_string(),
        };
        if got != want {
            wrong.push(format!("#{i}\t{got}"));
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

#[test]
fn every_base_parses() {
    for base in [LONG, INCAST, QUERY, COLL, FLUID, FCT] {
        ScenarioSpec::parse(base).unwrap();
    }
}

// Package engine is the common core the combining transports share: one
// configuration validator (Spec), one snapshot counter schema (Counters),
// the topology abstractions the cycle engines are parameterized by, and
// the Endpoint every cycle engine embeds.
//
// The paper's central claim is that combining lives in the switches and
// memory modules, not in any particular wiring: the queueing, combining,
// decombining, flow-control and fault-recovery machinery is
// topology-independent, and the omega network is just one way to connect
// it.  This package makes that split explicit:
//
//   - A Staged topology (omega, fat-tree/butterfly) supplies only wiring
//     functions — processor→line placement, the inter-stage permutations
//     and their inverses, and destination-tag port selection — plus the
//     conflict groups the deterministic parallel stepper partitions on,
//     which RevGroups/FwdGroups derive generically from the wiring.
//     The step loop, switch machinery, config plumbing and stats live in
//     internal/network and are reused unchanged by every staged wiring.
//
//   - A Direct topology (hypercube, torus) supplies the link structure of
//     a direct-connection machine — degree, neighbor map, and the
//     forward/reverse routing functions, with the invariant that the
//     reverse route retraces the forward route node for node (the paper's
//     "only major restriction": replies return via the same route, so the
//     wait buffers that combined a request see its reply).  The
//     store-and-forward step loop lives in internal/hypercube and is
//     reused unchanged by every direct wiring.
//
// Every cycle engine then splits into an edge and an interior.  The
// Endpoint is the edge, written once here and embedded by each engine:
//
//   - the processor ports: pending slot, retransmit queue, and the
//     exactly-once admission rules (WithReps, Track, HeldBack);
//   - fault setup (injector, tracker, crash–restart ledger, the fault
//     plan's memory options) and the module crash masks;
//   - both adversarial terminal links, request → memory and reply →
//     processor: stamp, reorder limbo, corrupt, verify or quarantine,
//     duplicate;
//   - reply completion: duplicate suppression, crash-replay accounting,
//     latency;
//   - the progress watchdog, the saturation monitor, the Run/Drain loop,
//     and the shared halves of StallReport and Snapshot.
//
// The interior is what the paper actually varies between machines — the
// switches, routers or bus FIFO, with their combining, decombining,
// routing and backpressure — and each engine keeps only that: its Step,
// its counters, and the few hooks (Setup) the endpoint calls back into.
// Replies retrace the request path through the interior, so combining
// stays switch-local while end-to-end reliability lives at the edge.
//
// What the core owns: config validation and defaults, the counter-key
// schema, conflict-group derivation, and the endpoint.  What a topology
// supplies: pure wiring arithmetic, well under 150 lines each.  Adding a
// topology means writing the wiring functions and nothing else — no new
// step loop, no new stats plumbing, no new parallel stepper.  No engine
// imports another; the port types (Injector, Injection) live here.
package engine

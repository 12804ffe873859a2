package cluster

// EventKind discriminates fleet events: ordinary replica compute steps
// (the zero value, omitted from JSON so step records keep the engine
// event schema plus a Replica tag) from first-class lifecycle records.
type EventKind string

// Event kinds.
const (
	// EventStep is a replica compute/admission step — the embedded
	// StepEvent carries the payload.
	EventStep EventKind = ""
	// EventReplicaWarming records a scale-up replica joining the fleet
	// cold; Start/End stamp the join.
	EventReplicaWarming EventKind = "replica-warming"
	// EventReplicaDraining records a scale-down replica closing to new
	// dispatches.
	EventReplicaDraining EventKind = "replica-draining"
	// EventReplicaDead records a replica leaving the fleet — drained
	// empty, hard-killed, or declared dead on lease expiry. For kills,
	// Tokens counts the in-flight requests abandoned with it.
	EventReplicaDead EventKind = "replica-dead"
	// EventRerouted records one queued, un-emitted request reclaimed
	// from a dead replica back into the dispatch queue with its
	// original arrival stamp; Replica names the replica it left.
	EventRerouted EventKind = "rerouted"
	// EventHandoff records one checkpointed request's prefill→decode
	// migration landing: Replica is the receiving decode replica,
	// Start/End span the interconnect transfer, Tokens counts the
	// expert working-set references carried and Hits how many of them
	// were admitted warm. The exporting replica is the one whose
	// Migrated prefill event carries the same request ID.
	EventHandoff EventKind = "handoff"
)

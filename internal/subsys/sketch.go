package subsys

// Sketch was the per-list grade summary a removed shard planner cut the
// universe by. Nothing builds or reads one: the engine does not shard,
// and the one sharded evaluation left (core.EvaluateSharded) cuts even
// ranges. It stays, with GradeSketcher, only so that the benchmark
// harness's tracing wrapper still compiles; ROADMAP 4(a) deletes both.
//
// Deprecated: it carries nothing; drop it.
type Sketch struct{}

// GradeSketcher was the optional capability of a Subsystem that served
// Sketches. No subsystem implements it and nothing consults it.
//
// Deprecated: drop it; see Sketch.
type GradeSketcher interface {
	GradeSketch(target string) *Sketch
}

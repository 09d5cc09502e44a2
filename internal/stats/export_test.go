package stats

// The small-capacity tests force evictions with summaries far below
// topKCapacity.
var (
	NewWithCapacity    = newWithCapacity
	AttachWithCapacity = attachWithCapacity
)

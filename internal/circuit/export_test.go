package circuit

// NewPlanSegmented exposes the segment-size hook to the external tests
// in this directory, which need internal/gc and so cannot live in the
// package.
var NewPlanSegmented = newPlanSegmented

// SegmentANDs is the segment size NewPlan uses.
const SegmentANDs = segmentANDs

package serve

import "fmt"

// Admission classes, highest priority first. Interactive jobs default to
// classNormal; campaign children default to classLow, so a 5,000-point sweep
// fills the queue's low-priority share and interactive work still gets in.
const (
	classHigh = iota
	classNormal
	classLow
	numClasses
)

var classNames = [numClasses]string{"high", "normal", "low"}

// parsePriority maps a wire priority to its class ("" = normal).
func parsePriority(s string) (int, error) {
	switch s {
	case "high":
		return classHigh, nil
	case "", "normal":
		return classNormal, nil
	case "low":
		return classLow, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want high, normal or low)", s)
}

// scheduler is the policy-driven admission queue: three class queues drained
// strictly highest-class-first, with per-class admission limits over the
// shared capacity. Lower classes are refused earlier (a saturating sweep
// cannot consume the whole queue), and the high class has reserved headroom
// above nominal capacity so an interactive job is admitted even while
// normal-priority load saturates the queue. Within a class, order is FIFO.
// Server.mu guards it; idle workers wait on Server.ready.
type scheduler struct {
	queues   [numClasses][]*job
	size     int
	capacity int
	closed   bool
}

// limit is the total queue size at or above which the given class is refused.
func (q *scheduler) limit(class int) int {
	switch class {
	case classHigh:
		// Reserved headroom: admitted even when the nominal queue is full.
		return q.capacity + max(1, q.capacity/8)
	case classLow:
		// Refused once the queue is 3/4 full, leaving room for better classes.
		return q.capacity - q.capacity/4
	default:
		return q.capacity
	}
}

// enqueue admits the job into its class queue, or refuses it (queue closed or
// the class's admission limit reached). Callers treat false as a shed.
func (q *scheduler) enqueue(j *job, class int) bool {
	if q.closed || q.size >= q.limit(class) {
		return false
	}
	q.queues[class] = append(q.queues[class], j)
	q.size++
	return true
}

// next dequeues the oldest job of the highest non-empty class, reporting
// false when the queue is empty.
func (q *scheduler) next() (*job, bool) {
	for class, queue := range q.queues {
		if len(queue) > 0 {
			j := queue[0]
			queue[0] = nil
			q.queues[class] = queue[1:]
			q.size--
			return j, true
		}
	}
	return nil, false
}

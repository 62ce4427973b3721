// Package executor replays, shape for shape, three defects that
// existed in this repository before the reoptvet suite landed and
// were fixed by it. The driver test loads this package under the
// import path internal/executor and asserts the suite still fails it:
// if an analyzer regresses to the point of missing its own
// motivating fix, the lint gate notices.
//
//   - Indexes: the unsorted map-key copy from storage.Table.Indexes
//     (mapiterorder).
//   - resolveOperator: the %v-instead-of-%w sentinel wrap from the
//     executor's plan lowering (errtaxonomy).
//   - watch: the bare context-merging watcher goroutine of the
//     since-deleted workload scheduler, the shape any new goroutine in
//     internal/executor, internal/sampling or internal/server must not
//     take (goroutinerecover).
package executor

import (
	"context"
	"errors"
	"fmt"
)

var ErrUnsupportedPlan = errors.New("executor: unsupported plan")

type table struct {
	indexes map[string]int
}

func (t *table) Indexes() []string {
	out := make([]string, 0, len(t.indexes))
	for name := range t.indexes {
		out = append(out, name)
	}
	return out
}

func resolveOperator(op string) error {
	return fmt.Errorf("executor: cannot resolve join predicate %v", op)
}

func watch(primary, secondary context.Context, cancel func(), done <-chan struct{}) {
	go func() {
		select {
		case <-primary.Done():
			cancel()
		case <-secondary.Done():
			cancel()
		case <-done:
		}
	}()
}

package xdx

// Executor comparison on the XMark most-fragmented -> least-fragmented
// mapping: the reference sequential executor, the per-op-goroutine parallel
// executor, and the pipelined streaming executor. The pipelined run is
// where the incremental join index and copy-on-write views pay off: every
// Combine in the chain probes a persistent index instead of re-walking the
// accumulated merged instance.

import (
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
)

func benchExec(b *testing.B, exec func(*core.Graph, *schema.Schema, map[string]*core.Instance) (*core.ExecResult, error)) {
	m, _ := ablationSetup(b)
	g, err := core.CanonicalProgram(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src := freshSources(b, m, 3)
		b.StartTimer()
		if _, err := exec(g, m.Source.Schema, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecSequential(b *testing.B) { benchExec(b, core.Execute) }
func BenchmarkExecPipelined(b *testing.B)  { benchExec(b, core.ExecutePipelined) }

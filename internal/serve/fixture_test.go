package serve

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"learn2scale/internal/core"
	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
)

// The test fixture: the tiny-MLP model pool every test shares, trained
// once. All four schemes at float32 and int16 — the full routing
// surface — kept small (80/40 samples, 3 epochs, 4 cores) so the whole
// harness stays seconds-scale.
var fixture struct {
	once   sync.Once
	ds     *data.Dataset
	models []*Model
	err    error
}

func fixtureSpec() core.SparseNetConfig {
	sgd := nn.DefaultSGD()
	sgd.Epochs = 3
	sgd.LearningRate = 0.03
	return core.SparseNetConfig{
		Name: "MLP", Spec: netzoo.MLP(),
		Recipe: core.Recipe{Lambda: 0.03, ThresholdRel: 0.3, SGD: sgd, Seed: 3},
	}
}

var fixtureSchemes = []core.Scheme{core.Baseline, core.StructureLevel, core.SS, core.SSMask}

func testModels(t testing.TB) []*Model {
	t.Helper()
	fixture.once.Do(func() {
		spec := fixtureSpec()
		fixture.ds = data.MNISTLike(80, 40, 3)
		fixture.models, fixture.err = NewModels(Config{}, spec, fixture.ds,
			fixtureSchemes,
			[]fixed.Precision{fixed.Float32, fixed.Int16},
			4, 0, spec.Seed)
	})
	if fixture.err != nil {
		t.Fatalf("fixture: %v", fixture.err)
	}
	return fixture.models
}

// testServer builds a server over the shared fixture pool and closes
// it when the test ends; a test may Close it earlier, since Close is
// safe to call twice.
func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg, testModels(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestMain fails the package if any server's dispatcher goroutine
// outlives the tests: a test that starts a Server must Close it.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := leakedDispatchers(2 * time.Second); leaked != "" {
		fmt.Fprintf(os.Stderr, "(*Server).dispatch goroutines alive after the tests (a Server was not closed):\n\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}

// leakedDispatchers polls the goroutine dump until no dispatcher
// goroutine is left or the wait runs out, and returns the stacks of
// the dispatchers still alive.
func leakedDispatchers(wait time.Duration) string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(wait); ; time.Sleep(10 * time.Millisecond) {
		dump := string(buf[:runtime.Stack(buf, true)])
		var leaked []string
		for _, g := range strings.Split(dump, "\n\n") {
			if strings.Contains(g, "serve.(*Server).dispatch(") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
	}
}

package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestRecipeTrainOptions pins the one per-scheme strength rule: SS
// trains at LambdaSS when it is nonzero, every other scheme (and SS
// without LambdaSS) at Lambda, and the rest of the recipe is carried
// through untouched.
func TestRecipeTrainOptions(t *testing.T) {
	schemes := []Scheme{Baseline, StructureLevel, SS, SSMask}
	sawSS, sawPlain := false, false
	for _, p := range []Profile{Quick, Default} {
		for _, n := range Table4Nets(p) {
			for _, s := range schemes {
				lambda := n.Lambda
				if s == SS && n.LambdaSS != 0 {
					lambda = n.LambdaSS
					sawSS = true
				} else if s == SS {
					sawPlain = true
				}
				want := TrainOptions{
					Cores: 16, Lambda: lambda, ThresholdRel: n.ThresholdRel,
					SGD: n.SGD, Seed: n.Seed,
				}
				if got := n.TrainOptions(s, 16); !reflect.DeepEqual(got, want) {
					t.Errorf("profile %d %s/%s: got %+v, want %+v", p, n.Name, s, got, want)
				}
			}
		}
	}
	if !sawSS || !sawPlain {
		t.Fatalf("table covers SS with LambdaSS %v and without %v; want both", sawSS, sawPlain)
	}
	lenet, _ := NetByName(Table4Nets(Quick), "LeNet")
	if got := lenet.TrainOptions(SS, 4).Lambda; got != 0.015 {
		t.Errorf("LeNet SS lambda %v, want its LambdaSS 0.015", got)
	}
	if got := lenet.TrainOptions(SSMask, 4).Lambda; got != 0.03 {
		t.Errorf("LeNet SS_Mask lambda %v, want its Lambda 0.03", got)
	}
}

// TestNetByName resolves every Table IV network in any letter case and
// rejects names that are not in the table.
func TestNetByName(t *testing.T) {
	nets := Table4Nets(Quick)
	for _, n := range nets {
		for _, name := range []string{n.Name, strings.ToLower(n.Name), strings.ToUpper(n.Name)} {
			got, ok := NetByName(nets, name)
			if !ok || got.Name != n.Name || got.Spec.Name != n.Spec.Name {
				t.Errorf("NetByName(%q) = %q, %v; want %q", name, got.Name, ok, n.Name)
			}
		}
	}
	for _, name := range []string{"alexnet", "", "mlp2"} {
		if got, ok := NetByName(nets, name); ok {
			t.Errorf("NetByName(%q) = %q, want not found", name, got.Name)
		}
	}
}

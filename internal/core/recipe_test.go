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

// TestSizedData: MLP and LeNet train on MNIST-like and ConvNet on
// CIFAR-like data at the requested sizes; CaffeNet keeps its recipe's
// own dataset whatever the sizes asked.
func TestSizedData(t *testing.T) {
	for _, n := range Table4Nets(Quick) {
		ds := n.SizedData(12, 5, 3)
		if n.Name == "CaffeNet" {
			want := n.Data(3)
			if ds.Name != want.Name || len(ds.TrainX) != len(want.TrainX) || len(ds.TestX) != len(want.TestX) {
				t.Errorf("CaffeNet: %s %d/%d, want its recipe's %s %d/%d",
					ds.Name, len(ds.TrainX), len(ds.TestX), want.Name, len(want.TrainX), len(want.TestX))
			}
			continue
		}
		if len(ds.TrainX) != 12 || len(ds.TestX) != 5 {
			t.Errorf("%s: %d train / %d test examples, want 12 / 5", n.Name, len(ds.TrainX), len(ds.TestX))
		}
		if !reflect.DeepEqual(ds.InShape, []int{n.Spec.InC, n.Spec.InH, n.Spec.InW}) {
			t.Errorf("%s: dataset shape %v does not fit the net's input %d×%d×%d",
				n.Name, ds.InShape, n.Spec.InC, n.Spec.InH, n.Spec.InW)
		}
	}
}

// TestSchemeNames pins each scheme's flag/wire name, its record slug
// and its display name, and that ParseScheme reads back exactly the
// names Name prints.
func TestSchemeNames(t *testing.T) {
	for _, tc := range []struct {
		scheme           Scheme
		name, slug, text string
	}{
		{Baseline, "baseline", "baseline", "Baseline"},
		{StructureLevel, "struct", "structure", "Structure-level"},
		{SS, "ss", "ss", "SS"},
		{SSMask, "ssmask", "ssmask", "SS_Mask"},
		{Scheme(7), "scheme7", "scheme7", "Scheme(7)"},
	} {
		if got := tc.scheme.Name(); got != tc.name {
			t.Errorf("%d: Name() = %q, want %q", int(tc.scheme), got, tc.name)
		}
		if got := tc.scheme.slug(); got != tc.slug {
			t.Errorf("%d: slug() = %q, want %q", int(tc.scheme), got, tc.slug)
		}
		if got := tc.scheme.String(); got != tc.text {
			t.Errorf("%d: String() = %q, want %q", int(tc.scheme), got, tc.text)
		}
		got, ok := ParseScheme(tc.name)
		if wantOK := tc.scheme <= SSMask; ok != wantOK || (ok && got != tc.scheme) {
			t.Errorf("ParseScheme(%q) = %v, %v", tc.name, got, ok)
		}
	}
	for _, bad := range []string{"", "structure", "SS", "SSMask", "Baseline", "ss_mask", "none"} {
		if s, ok := ParseScheme(bad); ok {
			t.Errorf("ParseScheme(%q) accepted it as %v", bad, s)
		}
	}
}

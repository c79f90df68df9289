package core

import (
	"fmt"
	"io"

	"learn2scale/internal/cmp"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/noc"
	"learn2scale/internal/partition"
	"learn2scale/internal/sparsity"
	"learn2scale/internal/topology"
)

// MaskShape selects how hop distance maps to sparsity strength in the
// SS_Mask scheme — the design choice DESIGN.md calls out for ablation.
type MaskShape int

// Mask shapes.
const (
	MaskLinear    MaskShape = iota // strength ∝ d (the paper's choice)
	MaskQuadratic                  // strength ∝ d²: prunes distance harder
	MaskBinaryFar                  // strength 1 for d > diameter/2, else 0
	MaskOffDiag                    // strength 1 off-diagonal, 0 on it
)

func (m MaskShape) String() string {
	switch m {
	case MaskLinear:
		return "linear"
	case MaskQuadratic:
		return "quadratic"
	case MaskBinaryFar:
		return "binary-far"
	case MaskOffDiag:
		return "off-diagonal"
	}
	return fmt.Sprintf("MaskShape(%d)", int(m))
}

// StrengthFor builds the normalized strength matrix of a shape on the
// mesh (mean 1 over all entries, diagonal 0 except MaskOffDiag which
// is the "SS but diagonal-free" control).
func StrengthFor(shape MaskShape, mesh topology.Mesh) [][]float64 {
	n := mesh.Nodes()
	d := mesh.DistanceMatrix()
	raw := make([][]float64, n)
	var sum float64
	for i := range raw {
		raw[i] = make([]float64, n)
		for j := range raw[i] {
			var v float64
			switch shape {
			case MaskLinear:
				v = float64(d[i][j])
			case MaskQuadratic:
				v = float64(d[i][j] * d[i][j])
			case MaskBinaryFar:
				if d[i][j] > mesh.Diameter()/2 {
					v = 1
				}
			case MaskOffDiag:
				if i != j {
					v = 1
				}
			}
			raw[i][j] = v
			sum += v
		}
	}
	if sum == 0 {
		return sparsity.UniformStrength(n)
	}
	scale := float64(n*n) / sum
	for i := range raw {
		for j := range raw[i] {
			raw[i][j] *= scale
		}
	}
	return raw
}

// MaskAblationRow is one shape's outcome.
type MaskAblationRow struct {
	Shape           MaskShape
	Accuracy        float64
	TrafficRate     float64
	WeightedHopRate float64
	Speedup         float64
	EnergyRed       float64
}

// MaskAblation trains the MLP under each mask shape and compares the
// learned communication patterns. All shapes share λ and training
// budget, so differences isolate the strength-shape choice.
func MaskAblation(cores int, lambda float64, log io.Writer) ([]MaskAblationRow, error) {
	cfg := Table4Nets(Quick)[0] // MLP
	ds := cfg.Data(cfg.Seed)
	mesh := topology.ForCores(cores)
	dist := mesh.DistanceMatrix()

	base, err := Train(Baseline, cfg.Spec, ds, cfg.TrainOptions(Baseline, cores))
	if err != nil {
		return nil, err
	}
	baseRep, err := base.Simulate()
	if err != nil {
		return nil, err
	}
	var baseHops int64
	for k := range base.Plan.Layers {
		baseHops += base.Plan.LayerTraffic(k).WeightedHops(dist)
	}

	shapes := []MaskShape{MaskLinear, MaskQuadratic, MaskBinaryFar, MaskOffDiag}
	return sweep(len(shapes), log == nil, func(i int) (MaskAblationRow, error) {
		shape := shapes[i]
		if log != nil {
			fmt.Fprintf(log, "== mask ablation: %s\n", shape)
		}
		// Train(SSMask, ...) with this shape's strengths in place of
		// the default distance mask.
		opt := cfg.TrainOptions(SSMask, cores)
		opt.Lambda = lambda
		m, err := trainCustom(SSMask, cfg.Spec, ds, StrengthFor(shape, mesh), opt)
		if err != nil {
			return MaskAblationRow{}, err
		}
		rep, err := m.Simulate()
		if err != nil {
			return MaskAblationRow{}, err
		}
		var hops int64
		for k := range m.Plan.Layers {
			hops += m.Plan.LayerTraffic(k).WeightedHops(dist)
		}
		c := cmp.NewCompare(baseRep, rep)
		row := MaskAblationRow{
			Shape:       shape,
			Accuracy:    m.Accuracy,
			TrafficRate: m.TrafficRate(),
			Speedup:     c.SystemSpeedup,
			EnergyRed:   c.NoCEnergyReduction,
		}
		if baseHops > 0 {
			row.WeightedHopRate = float64(hops) / float64(baseHops)
		}
		return row, nil
	})
}

// MaskAblationTable formats the ablation rows.
func MaskAblationTable(rows []MaskAblationRow) Table {
	t := Table{
		Title: "Ablation: SS_Mask strength shape (MLP, 16 cores)",
		Header: []string{"Shape", "Accu.", "Traffic rate", "Traffic×dist rate",
			"Speedup", "Energy red."},
	}
	for _, r := range rows {
		t.AddRow(r.Shape.String(), fmtAccP(r.Accuracy), fmtPct(r.TrafficRate),
			fmtPct(r.WeightedHopRate), fmtX(r.Speedup), fmtPct(r.EnergyRed))
	}
	return t
}

// NoCSweepRow is one NoC configuration's burst drain time.
type NoCSweepRow struct {
	Param  string
	Value  int
	Cycles int64
}

// NoCSweep drains the dense LeNet conv2 synchronization burst under
// varying NoC parameters (VC count, buffer depth, packet length),
// isolating each parameter's effect on the layer-transition latency.
func NoCSweep(cores int) ([]NoCSweepRow, error) {
	plan := partition.NewPlan(netzoo.LeNet(), cores)
	msgs := plan.LayerTraffic(1).Messages()
	mesh := topology.ForCores(cores)

	run := func(mod func(*noc.Config)) (int64, error) {
		cfg := noc.DefaultConfig(mesh)
		mod(&cfg)
		sim, err := noc.New(cfg)
		if err != nil {
			return 0, err
		}
		res, err := sim.RunBurst(msgs)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}

	var rows []NoCSweepRow
	for _, v := range []int{1, 2, 3, 4} {
		cy, err := run(func(c *noc.Config) { c.VCs = v })
		if err != nil {
			return nil, err
		}
		rows = append(rows, NoCSweepRow{"VCs", v, cy})
	}
	for _, v := range []int{4, 8, 16} {
		cy, err := run(func(c *noc.Config) { c.BufDepth = v })
		if err != nil {
			return nil, err
		}
		rows = append(rows, NoCSweepRow{"BufDepth", v, cy})
	}
	for _, v := range []int{10, 20, 40} {
		cy, err := run(func(c *noc.Config) { c.PacketFlits = v })
		if err != nil {
			return nil, err
		}
		rows = append(rows, NoCSweepRow{"PacketFlits", v, cy})
	}
	for _, v := range []int{1, 2, 4} {
		cy, err := run(func(c *noc.Config) { c.Planes = v })
		if err != nil {
			return nil, err
		}
		rows = append(rows, NoCSweepRow{"Planes", v, cy})
	}
	return rows, nil
}

// PlacementRow compares identity vs optimized core placement for one
// trained model.
type PlacementRow struct {
	Scheme        Scheme
	IdentityHops  int64 // Σ bytes×hops under the paper's mapping
	OptimizedHops int64
	IdentityComm  int64 // blocking comm cycles
	OptimizedComm int64
	EnergySavePct float64 // NoC energy saved by re-placement
}

// PlacementAblation extends the paper: after SS or SS_Mask training,
// re-place the logical cores on the mesh to minimize bytes×hops. The
// expected result — SS (distance-oblivious) benefits substantially
// because its surviving blocks are scattered, while SS_Mask has
// already localized its traffic during training and gains little —
// confirms that SS_Mask's advantage really comes from distance
// awareness.
func PlacementAblation(cores int, log io.Writer) ([]PlacementRow, error) {
	cfg := Table4Nets(Quick)[0] // MLP
	ds := cfg.Data(cfg.Seed)
	mesh := topology.ForCores(cores)
	sys, err := cmp.New(cmp.DefaultConfig(cores))
	if err != nil {
		return nil, err
	}
	var rows []PlacementRow
	for _, scheme := range []Scheme{SS, SSMask} {
		if log != nil {
			fmt.Fprintf(log, "== placement ablation: training %s\n", scheme)
		}
		topt := cfg.TrainOptions(scheme, cores)
		topt.Log = log
		m, err := Train(scheme, cfg.Spec, ds, topt)
		if err != nil {
			return nil, err
		}
		agg := m.Plan.AggregateTraffic()
		id := partition.IdentityPlacement(cores)
		opt := partition.OptimizePlacement(agg, mesh, 30000, 1)

		idRep, err := sys.RunPlan(m.Plan)
		if err != nil {
			return nil, err
		}
		optRep, err := sys.RunPlanPlaced(m.Plan, opt)
		if err != nil {
			return nil, err
		}
		row := PlacementRow{
			Scheme:        scheme,
			IdentityHops:  partition.PlacementCost(agg, id, mesh),
			OptimizedHops: partition.PlacementCost(agg, opt, mesh),
			IdentityComm:  idRep.CommCycles,
			OptimizedComm: optRep.CommCycles,
		}
		if e := idRep.NoCEnergy.Total(); e > 0 {
			row.EnergySavePct = (1 - optRep.NoCEnergy.Total()/e) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PlacementTable formats the placement ablation.
func PlacementTable(rows []PlacementRow) Table {
	t := Table{
		Title: "Ablation: communication-aware core placement after training (MLP)",
		Header: []string{"Scheme", "bytes×hops (identity)", "bytes×hops (optimized)",
			"Comm cycles (id)", "Comm cycles (opt)", "NoC energy saved"},
	}
	for _, r := range rows {
		t.AddRow(r.Scheme.String(), fmt.Sprintf("%d", r.IdentityHops),
			fmt.Sprintf("%d", r.OptimizedHops), fmt.Sprintf("%d", r.IdentityComm),
			fmt.Sprintf("%d", r.OptimizedComm), fmt.Sprintf("%.1f%%", r.EnergySavePct))
	}
	return t
}

// UnstructuredRow compares traffic elimination of structured (block)
// sparsity against unstructured (magnitude) pruning at matched weight
// sparsity.
type UnstructuredRow struct {
	Method         string
	WeightSparsity float64 // fraction of zero weights in regularized layers
	TrafficRate    float64 // synchronization bytes vs dense
	Accuracy       float64
}

// UnstructuredAblation reproduces the paper's §IV.C.1 argument in
// numbers: prune the same share of weights with and without block
// structure and observe that only the structured zeros remove NoC
// traffic — randomly placed zeros leave every activation column with
// some consumer.
func UnstructuredAblation(cores int, log io.Writer) ([]UnstructuredRow, error) {
	cfg := Table4Nets(Quick)[0] // MLP
	ds := cfg.Data(cfg.Seed)

	// Structured: the SS_Mask pipeline.
	opt := cfg.TrainOptions(SSMask, cores)
	opt.Log = log
	m, err := Train(SSMask, cfg.Spec, ds, opt)
	if err != nil {
		return nil, err
	}
	structSparsity, _ := weightSparsity(m.Net)

	// Unstructured: baseline training, then magnitude pruning of the
	// same layers to the same sparsity.
	opt = cfg.TrainOptions(Baseline, cores)
	opt.Log = log
	base, err := Train(Baseline, cfg.Spec, ds, opt)
	if err != nil {
		return nil, err
	}
	gl, err := sparsity.ForPlan(base.Net, base.Plan, sparsity.UniformStrength(cores), 0)
	if err != nil {
		return nil, err
	}
	for _, lg := range gl.Layers {
		sparsity.UnstructuredPrune(lg, structSparsity)
	}
	// Traffic at unit granularity: a block stays active while any of
	// its weights survives.
	masks := make([]partition.BlockMask, len(gl.Layers))
	for i, lg := range gl.Layers {
		masks[i] = sparsity.UnitTraffic(lg)
	}
	byLayer := sparsity.MasksByLayer(gl, base.Plan, masks)
	for k, mask := range byLayer {
		if mask != nil {
			base.Plan.SetMask(k, mask)
		}
	}
	rows := []UnstructuredRow{
		{
			Method: "SS_Mask (structured)", WeightSparsity: structSparsity,
			TrafficRate: m.TrafficRate(), Accuracy: m.Accuracy,
		},
		{
			Method: "magnitude (unstructured)", WeightSparsity: structSparsity,
			TrafficRate: base.TrafficRate(), Accuracy: base.Net.Accuracy(ds.TestX, ds.TestY),
		},
	}
	return rows, nil
}

// weightSparsity returns the zero fraction over all weight parameters.
func weightSparsity(net *nn.Network) (frac float64, total int) {
	zeros := 0
	for _, p := range net.WeightParams() {
		for _, v := range p.W.Data {
			if v == 0 {
				zeros++
			}
		}
		total += p.W.Len()
	}
	if total == 0 {
		return 0, 0
	}
	return float64(zeros) / float64(total), total
}

// UnstructuredTable formats the ablation.
func UnstructuredTable(rows []UnstructuredRow) Table {
	t := Table{
		Title:  "Ablation: structured vs unstructured sparsity at matched weight sparsity (MLP)",
		Header: []string{"Method", "Weight sparsity", "Traffic rate", "Accuracy"},
	}
	for _, r := range rows {
		t.AddRow(r.Method, fmtPct(r.WeightSparsity), fmtPct(r.TrafficRate), fmtAccP(r.Accuracy))
	}
	return t
}

// QuantRow reports a network's accuracy on the float path vs the
// accelerator's 16-bit fixed-point path (the scaled-int16 QuantNetwork
// built by TrainedModel.Quantize).
type QuantRow struct {
	Network   string
	FloatAcc  float64
	FixedAcc  float64
	AgreePct  float64 // fraction of test inputs where both paths agree
	DeltaPP   float64 // FixedAcc − FloatAcc in percentage points
	TestCount int
}

// QuantAblation validates the platform assumption that 16-bit fixed
// point is accuracy-neutral (the premise of running inference on
// Diannao-class cores at all): it trains each benchmark baseline,
// quantizes it with max-abs calibration and evaluates both inference
// paths.
func QuantAblation(nets []SparseNetConfig, cores int, log io.Writer) ([]QuantRow, error) {
	return sweep(len(nets), log == nil, func(i int) (QuantRow, error) {
		cfg := nets[i]
		ds := cfg.Data(cfg.Seed)
		if log != nil {
			fmt.Fprintf(log, "== quant: training %s baseline\n", cfg.Name)
		}
		opt := cfg.TrainOptions(Baseline, cores)
		opt.Log = log
		m, err := Train(Baseline, cfg.Spec, ds, opt)
		if err != nil {
			return QuantRow{}, err
		}
		m.Quantize(ds, nn.CalibConfig{Method: fixed.CalibMaxAbs})
		agree := 0
		for _, x := range ds.TestX {
			if m.Net.Predict(x) == m.QNet.Predict(x) {
				agree++
			}
		}
		row := QuantRow{
			Network:   cfg.Name,
			FloatAcc:  m.Accuracy,
			FixedAcc:  m.QuantAccuracy,
			TestCount: len(ds.TestX),
		}
		row.DeltaPP = (row.FixedAcc - row.FloatAcc) * 100
		if row.TestCount > 0 {
			row.AgreePct = float64(agree) / float64(row.TestCount) * 100
		}
		return row, nil
	})
}

// QuantTable formats the quantization ablation.
func QuantTable(rows []QuantRow) Table {
	t := Table{
		Title:  "Ablation: float32 vs 16-bit fixed-point (scaled int16) inference accuracy",
		Header: []string{"Network", "Float acc.", "Fixed acc.", "Delta (pp)", "Prediction agreement"},
	}
	for _, r := range rows {
		t.AddRow(r.Network, fmtAccP(r.FloatAcc), fmtAccP(r.FixedAcc),
			fmt.Sprintf("%+.2f", r.DeltaPP), fmt.Sprintf("%.1f%%", r.AgreePct))
	}
	return t
}

// MulticastRow compares replicated-unicast broadcast (the platform's
// scheme) with an ideal hardware-multicast lower bound for one network.
type MulticastRow struct {
	Network       string
	UnicastHops   int64 // bytes×hops, replicated unicast
	MulticastHops int64 // bytes×hops, ideal XY multicast trees
	SavingPct     float64
}

// MulticastAblation extends the paper: how much of traditional
// parallelization's link traffic is pure duplication that a multicast
// NoC could eliminate — an orthogonal hardware answer to the same
// problem the paper attacks in training.
func MulticastAblation(cores int) []MulticastRow {
	mesh := topology.ForCores(cores)
	nets := []netzoo.NetSpec{netzoo.MLP(), netzoo.LeNet(), netzoo.ConvNet(), netzoo.AlexNet()}
	var rows []MulticastRow
	for _, spec := range nets {
		p := partition.NewPlan(spec, cores)
		var u, m int64
		for k := range p.Layers {
			lu, lm := p.LayerTraffic(k).MulticastAnalysis(mesh)
			u += lu
			m += lm
		}
		row := MulticastRow{Network: spec.Name, UnicastHops: u, MulticastHops: m}
		if u > 0 {
			row.SavingPct = (1 - float64(m)/float64(u)) * 100
		}
		rows = append(rows, row)
	}
	return rows
}

// MulticastTable formats the multicast ablation.
func MulticastTable(rows []MulticastRow) Table {
	t := Table{
		Title:  "Ablation: ideal multicast vs replicated-unicast broadcast (bytes×hops)",
		Header: []string{"Network", "Unicast", "Multicast bound", "Saving"},
	}
	for _, r := range rows {
		t.AddRow(r.Network, fmtBytes(r.UnicastHops), fmtBytes(r.MulticastHops),
			fmt.Sprintf("%.0f%%", r.SavingPct))
	}
	return t
}

// OverlapRow is the overlap ablation for one overlap factor.
type OverlapRow struct {
	Factor    float64
	Cycles    int64
	CommShare float64
}

// OverlapAblation bounds how much of the traditional-parallelization
// communication penalty could be hidden by overlapping synchronization
// with compute (double buffering), without any of the paper's
// techniques — the limit the learned sparsity schemes are competing
// against.
func OverlapAblation(spec netzoo.NetSpec, cores int) ([]OverlapRow, error) {
	sys, err := cmp.New(cmp.DefaultConfig(cores))
	if err != nil {
		return nil, err
	}
	rep, err := sys.RunPlan(partition.NewPlan(spec, cores))
	if err != nil {
		return nil, err
	}
	var rows []OverlapRow
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		cy := rep.TotalCyclesOverlap(f)
		share := 0.0
		if cy > 0 {
			share = float64(cy-rep.ComputeCycles) / float64(cy)
		}
		rows = append(rows, OverlapRow{Factor: f, Cycles: cy, CommShare: share})
	}
	return rows, nil
}

// OverlapTable formats the overlap ablation.
func OverlapTable(spec string, rows []OverlapRow) Table {
	t := Table{
		Title:  fmt.Sprintf("Ablation: comm/compute overlap bound (%s, traditional parallelization)", spec),
		Header: []string{"Overlap factor", "Total cycles", "Comm share"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.2f", r.Factor), fmt.Sprintf("%d", r.Cycles), fmtPct(r.CommShare))
	}
	return t
}

// NoCSweepTable formats the sweep.
func NoCSweepTable(rows []NoCSweepRow) Table {
	t := Table{
		Title:  "Ablation: NoC parameters vs LeNet conv2 burst drain time",
		Header: []string{"Parameter", "Value", "Drain cycles"},
	}
	for _, r := range rows {
		t.AddRow(r.Param, fmt.Sprintf("%d", r.Value), fmt.Sprintf("%d", r.Cycles))
	}
	return t
}

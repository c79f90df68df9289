package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// checkpoint is the on-disk representation of a network's parameters.
// The architecture itself is not serialized: a checkpoint is loaded
// into a freshly built network of the same spec, matching parameters
// by name and shape (the Caffe .caffemodel convention).
type checkpoint struct {
	NetName string
	Params  []paramBlob
}

type paramBlob struct {
	Name  string
	Shape []int
	Data  []float32
}

// Save writes the network's parameters to w.
func (n *Network) Save(w io.Writer) error {
	ck := checkpoint{NetName: n.Name}
	for _, p := range n.Params() {
		ck.Params = append(ck.Params, paramBlob{
			Name:  p.Name,
			Shape: append([]int(nil), p.W.Shape...),
			Data:  append([]float32(nil), p.W.Data...),
		})
	}
	return gob.NewEncoder(w).Encode(ck)
}

// Load reads parameters from r into the network. Every parameter of
// the network must be present in the checkpoint with a matching shape;
// extra checkpoint entries are an error too, so architecture drift is
// caught rather than silently ignored.
func (n *Network) Load(r io.Reader) error {
	params := n.Params()
	for _, p := range params {
		if p.frozen {
			return fmt.Errorf("nn: load into frozen network %q (its packed weights would go stale)", n.Name)
		}
	}
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	blobs := make(map[string]paramBlob, len(ck.Params))
	for _, b := range ck.Params {
		blobs[b.Name] = b
	}
	if len(params) != len(ck.Params) {
		return fmt.Errorf("nn: checkpoint has %d params, network has %d", len(ck.Params), len(params))
	}
	for _, p := range params {
		b, ok := blobs[p.Name]
		if !ok {
			return fmt.Errorf("nn: checkpoint missing parameter %q", p.Name)
		}
		if !shapeEq(b.Shape, p.W.Shape) {
			return fmt.Errorf("nn: parameter %q shape %v, checkpoint %v", p.Name, p.W.Shape, b.Shape)
		}
		copy(p.W.Data, b.Data)
	}
	return nil
}

// SaveFile writes the network's parameters to path.
func (n *Network) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := n.Save(f); err != nil {
		return err
	}
	return f.Close()
}

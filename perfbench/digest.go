package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"repro/internal/sim"
)

// digester hashes simulated results in the order they are added, so two
// runs of one workload and seed can be shown to have simulated exactly
// the same statistics.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

// add hashes one labelled result.
func (d *digester) add(label string, res sim.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("digesting %s: %w", label, err)
	}
	d.h.Write([]byte(label))
	d.h.Write([]byte{0})
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
	return nil
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// digestOf hashes cells in order.
func digestOf(cells []cellResult) (string, error) {
	d := newDigester()
	for _, c := range cells {
		if err := d.add(c.label, c.res); err != nil {
			return "", err
		}
	}
	return d.sum(), nil
}

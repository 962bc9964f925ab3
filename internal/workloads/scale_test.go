package workloads

import (
	"encoding/hex"
	"testing"

	"haac/internal/circuit"
)

// pinnedCircuits is the circuit.Digest of every circuit the repo
// benchmark builds, keyed by workload Description: the paper-scale and
// reduced VIP suites, and the serving workloads at full and smoke scale.
// A builder change that is meant to be a pure speed-up must leave every
// digest unchanged.
var pinnedCircuits = map[string]string{
	// VIPSuite; its DotProd and ReLU are also serve.tables and serve.inputs.
	"bubble sort of 245 32-bit integers":                                 "a13f71374c3858b9c91fe517ce889c49dc449562c134ed3a219a3c24e4819759",
	"dot product of two 128-element 32-bit vectors":                      "aea01f5340d4fd3e6f5545a0e7b9f16173585a4e226c0ec4bafc6ba06d25b2ad",
	"MT19937-style init of 624 words + 32 tempered outputs":              "b6e26052cc130445bce87014c6f4d386d29525ed64dd61a93bb7ed7dcdf057df",
	"triangle count over a 160-vertex graph (12720 edge bits)":           "000ce971cf91ffb40e50a33bc39601d91529593dceb3377df491a2f0bac0c893",
	"Hamming distance over 40960-bit vectors":                            "7a40c99ce9c1480fe87723abef2e92da7878eb0edce5eebad5a97f4abaccd961",
	"8 x 8 matrix multiply, 32-bit":                                      "47d361f5fc0eea78189370c88ace9d6e90ff13a7954e9bea783aab181471a3b6",
	"2048 ReLU evaluations on 32-bit ints":                               "cc3b06793f7697bac9566e31dca07a91837e329ed38b7d937e5b8773d8dd28b2",
	"linear regression, 12 samples x 20 rounds of FP32 gradient descent": "dbb0d6b5807813c6df0dd782a5a011a6785271c25b445f91d41a598cd27e83ff",
	// VIPSuiteSmall
	"bubble sort of 8 16-bit integers":                                 "0b904d238ff9dba3b8e7f23d8ce7adc9c467b461f10737ea5c6eceb03e5f49c5",
	"dot product of two 8-element 16-bit vectors":                      "f251c139091eedd819b9c321e06329378ddd5167afe3e98f93aa631c0b2a410d",
	"MT19937-style init of 8 words + 4 tempered outputs":               "2d07ddd1053ae0d71966daf1551d347195b4aa97159f83158a922eb635c6b1ba",
	"triangle count over a 10-vertex graph (45 edge bits)":             "945937467ab55be2074b0c3b9060bc42fc76b68883c7299417e880be9b9d2883",
	"Hamming distance over 128-bit vectors":                            "cdf5386770eca23e1231f0f83535e983cc0391ffb67aa2d024c56c11992b1dec",
	"3 x 3 matrix multiply, 16-bit":                                    "394fbd2a895f823efa61e6c718e62c9585a7c065a34c57040a6833ab70b62d55",
	"8 ReLU evaluations on 32-bit ints":                                "2623ace76a460035623af35d34dd4824cc85f0c198564055aeee82367f72593f",
	"linear regression, 4 samples x 2 rounds of FP32 gradient descent": "7ac0d2530b256c43ec941a33adbcfae9169cb2024e0d4528968b7a897f19de13",
	// serve.small, serve.churn
	"dot product of two 4-element 16-bit vectors":           "71ed1b370330478fec267d108e3a7ae860ca43daeb4eff584a62b1c7188e64f1",
	"one AES-128 block encryption, in-circuit key schedule": "a4d858152adf766b94d92b044213e0730b86a37e8057d7d99dea43b7558e6d3e",
	// serve.tables, serve.inputs, serve.small at smoke scale
	"dot product of two 4-element 8-bit vectors": "da654ffb38e4ca5fb39fb88032dabc8c046b7880ac63caeebc97c504da01d0e9",
	"8 ReLU evaluations on 16-bit ints":          "7c63109a1c3dc7983b5872c63e63ec3f92a26ef1315438e11406152cda975efe",
	"dot product of two 2-element 8-bit vectors": "9270d5bc6b3d03d37c581c849e484cf4f3f1d4e7d878fb067f380546d681903b",
}

// pinWorkloads lists the pinned circuits; the paper-scale ones only
// outside -short.
func pinWorkloads(short bool) []Workload {
	var ws []Workload
	if !short {
		// serve.tables and serve.inputs repeat VIPSuite's DotProd and
		// ReLU and are built once.
		ws = append(ws, VIPSuite()...)
		ws = append(ws, DotProduct(128, 32), ReLU(2048, 32))
	}
	ws = append(ws, VIPSuiteSmall()...)
	return append(ws, DotProduct(4, 16), AES128(), DotProduct(4, 8), ReLU(8, 16), DotProduct(2, 8))
}

func TestPaperScaleStats(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range pinWorkloads(testing.Short()) {
		if seen[w.Description] {
			continue
		}
		seen[w.Description] = true
		c := w.Build()
		s := c.ComputeStats()
		t.Logf("%-10s gates=%9d AND%%=%5.1f levels=%7d ILP=%8.0f wires=%9d",
			w.Name, s.Gates, s.ANDPercent, s.Levels, s.ILP, s.Wires)
		d := circuit.Digest(c)
		if got, want := hex.EncodeToString(d[:]), pinnedCircuits[w.Description]; got != want {
			t.Errorf("%s (%s): digest %s, pinned %q", w.Name, w.Description, got, want)
		}
	}
	if !testing.Short() && len(seen) != len(pinnedCircuits) {
		t.Errorf("built %d distinct circuits, %d pinned", len(seen), len(pinnedCircuits))
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"coordsample/internal/server"
	"coordsample/internal/shard"
)

// numAssign is |W|: every key carries up to four weights, read as four
// consecutive measurement periods.
const numAssign = 4

// predPrefix selects the key bodies whose second octet is 7. Bodies encode
// their index modulo 16 there, so the predicate selects exactly 1/16 of
// every epoch's keys.
const predPrefix = "10.7."

// tagLen is the width of the round tag that ends every key. Each round
// (one epoch of input) stamps its own tag, so no key is offered twice to
// a server: the pre-aggregation rule holds however many rounds a run
// makes, while the key bodies and weights repeat from a few templates.
const tagLen = 6

// template is one epoch's worth of generated input: key bodies (the key
// minus its round tag) and their weights. A weight of 0 means the key is
// absent from that assignment and is never offered there.
type template struct {
	bodies []string
	w      [][numAssign]float64
	offers int
}

// makeTemplate generates template t of a workload from its seed. Weights
// are Pareto(α=1.2) per key, so heavy-tailed, with a log-normal drift per
// period, so correlated across assignments; each key is absent from each
// period with probability 0.15 (but present in at least one).
func makeTemplate(seed uint64, t, keys int) *template {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(t)))
	tp := &template{bodies: make([]string, keys), w: make([][numAssign]float64, keys)}
	protos := [...]string{"tcp", "udp", "tcp", "tcp"}
	ports := [...]int{80, 443, 443, 53, 22, 8080, 3306, 6379}
	for i := 0; i < keys; i++ {
		q := i / 16
		tp.bodies[i] = fmt.Sprintf("10.%d.%d.%d:%d>172.16.%d.%d:%d/%s#",
			i%16, (q>>8)&255, q&255, 1024+rng.IntN(64511),
			rng.IntN(256), rng.IntN(256), ports[rng.IntN(len(ports))], protos[rng.IntN(len(protos))])
		base := math.Min(math.Pow(1-rng.Float64(), -1/1.2), 1e6)
		present := 0
		for b := 0; b < numAssign; b++ {
			if rng.Float64() < 0.15 {
				continue
			}
			tp.w[i][b] = base * math.Exp(0.5*rng.NormFloat64())
			present++
		}
		if present == 0 {
			b := rng.IntN(numAssign)
			tp.w[i][b] = base * math.Exp(0.5*rng.NormFloat64())
			present = 1
		}
		tp.offers += present
	}
	return tp
}

// roundTag renders round r's key tag.
func roundTag(r int) string { return fmt.Sprintf("%0*x", tagLen, r) }

// chunk is one POST /ingest body in the binary framing. A template chunk
// carries a placeholder tag at every tagOff; materialize stamps a round's
// tag into a copy.
type chunk struct {
	body   []byte
	tagOff []int32
	offers int
}

// materialize copies the chunk into dst and stamps round r's tag into every
// key. It reuses dst's storage, so a worker re-encodes nothing per round.
func (c *chunk) materialize(dst []byte, r int) []byte {
	dst = append(dst[:0], c.body...)
	tag := roundTag(r)
	for _, off := range c.tagOff {
		copy(dst[off:], tag)
	}
	return dst
}

// encodeChunks encodes a template's keys in chunks of chunkKeys keys, each
// key's offers adjacent (key-major), with a placeholder round tag.
func encodeChunks(tp *template, chunkKeys int) []*chunk {
	placeholder := roundTag(0)
	var out []*chunk
	for lo := 0; lo < len(tp.bodies); lo += chunkKeys {
		hi := min(lo+chunkKeys, len(tp.bodies))
		c := &chunk{}
		for i := lo; i < hi; i++ {
			key := tp.bodies[i] + placeholder
			for b := 0; b < numAssign; b++ {
				if tp.w[i][b] == 0 {
					continue
				}
				c.body = server.AppendBinaryOffer(c.body, b, key, tp.w[i][b])
				// Record layout: uvarint assignment, uvarint key length,
				// key bytes, 8-byte weight; the tag ends the key, just
				// before the weight.
				c.tagOff = append(c.tagOff, int32(len(c.body)-8-tagLen))
				c.offers++
			}
		}
		out = append(out, c)
	}
	return out
}

// encodeRouted encodes round r of template tp for a cluster of peers:
// every key goes to its owner, shard.ShardOf(key, peers), in chunks of at
// most chunkKeys keys per peer. The result is indexed [peer][chunk].
func encodeRouted(tp *template, r, peers, chunkKeys int) [][]*chunk {
	out := make([][]*chunk, peers)
	cur := make([]*chunk, peers)
	keysIn := make([]int, peers)
	tag := roundTag(r)
	for i, body := range tp.bodies {
		key := body + tag
		p := shard.ShardOf(key, peers)
		if cur[p] == nil {
			cur[p] = &chunk{}
			out[p] = append(out[p], cur[p])
		}
		c := cur[p]
		for b := 0; b < numAssign; b++ {
			if tp.w[i][b] != 0 {
				c.body = server.AppendBinaryOffer(c.body, b, key, tp.w[i][b])
				c.offers++
			}
		}
		if keysIn[p]++; keysIn[p] == chunkKeys {
			cur[p], keysIn[p] = nil, 0
		}
	}
	return out
}

// dotprod2pc runs a private dot product between two parties over a real
// TCP connection — the private-inference-flavoured workload the paper's
// introduction motivates (GC as the non-linear/bottleneck protocol in
// hybrid private ML). One side holds a weight vector, the other an
// input vector; neither learns the other's values, both learn the inner
// product.
//
//	go run ./examples/dotprod2pc            # both roles in one process
//	go run ./examples/dotprod2pc -role garbler   -listen :9100
//	go run ./examples/dotprod2pc -role evaluator -addr host:9100
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"

	"haac"
)

const (
	vecLen = 16
	width  = 16
)

func buildCircuit() *haac.Circuit {
	b := haac.NewBuilder()
	weights := make([]haac.Word, vecLen)
	inputs := make([]haac.Word, vecLen)
	for i := range weights {
		weights[i] = b.GarblerInputs(width)
	}
	for i := range inputs {
		inputs[i] = b.EvaluatorInputs(width)
	}
	acc := b.ZeroWord(width)
	for i := range weights {
		acc = b.Add(acc, b.Mul(weights[i], inputs[i]))
	}
	b.OutputWord(acc)
	return b.MustBuild()
}

func vecBits(rng *rand.Rand) ([]bool, []uint64) {
	vals := make([]uint64, vecLen)
	bits := make([]bool, 0, vecLen*width)
	for i := range vals {
		vals[i] = uint64(rng.Intn(100))
		for j := 0; j < width; j++ {
			bits = append(bits, vals[i]>>uint(j)&1 == 1)
		}
	}
	return bits, vals
}

func main() {
	role := flag.String("role", "", "garbler, evaluator, or empty for an in-process demo")
	listen := flag.String("listen", ":9100", "garbler listen address")
	addr := flag.String("addr", "127.0.0.1:9100", "evaluator dial address")
	seed := flag.Int64("seed", 42, "input seed")
	flag.Parse()

	c := buildCircuit()
	rng := rand.New(rand.NewSource(*seed))
	gBits, weights := vecBits(rng)
	eBits, inputs := vecBits(rng)

	switch *role {
	case "":
		runLocalDemo(c, gBits, eBits, weights, inputs)
	case "garbler":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		fmt.Printf("garbler: weights %v\nwaiting on %s...\n", weights, *listen)
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		out, err := haac.RunGarbler(conn, c, gBits, haac.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dot product: %d\n", toUint(out))
	case "evaluator":
		conn, err := net.Dial("tcp", *addr)
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		fmt.Printf("evaluator: inputs %v\n", inputs)
		out, err := haac.RunEvaluator(conn, c, eBits, haac.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dot product: %d\n", toUint(out))
	default:
		log.Fatalf("unknown role %q", *role)
	}
}

// runLocalDemo plays both parties over a loopback TCP socket.
func runLocalDemo(c *haac.Circuit, gBits, eBits []bool, weights, inputs []uint64) {
	var want uint64
	for i := range weights {
		want = (want + weights[i]*inputs[i]) & (1<<width - 1)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	done := make(chan uint64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		out, err := haac.RunGarbler(conn, c, gBits, haac.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		done <- toUint(out)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	out, err := haac.RunEvaluator(conn, c, eBits, haac.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	got := toUint(out)
	garblerGot := <-done

	fmt.Printf("weights (garbler-private):  %v\n", weights)
	fmt.Printf("inputs  (evaluator-private): %v\n", inputs)
	fmt.Printf("secure dot product: evaluator=%d garbler=%d native=%d\n", got, garblerGot, want)
	if got != want || garblerGot != want {
		log.Fatal("secure result mismatch")
	}
	fmt.Println("both parties agree with the native result; neither saw the other's vector")
}

func toUint(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

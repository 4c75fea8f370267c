package main

import (
	"math"
	"time"

	"origin/internal/comm"
	"origin/internal/dnn"
	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/serve"
	"origin/internal/synth"
	"origin/internal/tensor"
)

// minTimed is how long each direct timing repeats its pass.
const minTimed = 150 * time.Millisecond

// timeOps repeats pass (which does ops operations) until minTimed has
// passed and returns nanoseconds per operation.
func timeOps(ops int, pass func()) float64 {
	if ops == 0 {
		return 0
	}
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < minTimed {
		pass()
		n++
	}
	return float64(time.Since(start)) / float64(n*ops)
}

// directLayers times calls into each layer's public functions on the
// workload's own inputs, as captured by the replay. Metrics that need an
// input the workload does not have (frames on a JSON workload, windows on
// a votes workload) stay absent and are reported as 0.
func directLayers(model *fleet.Model, rep *replayOut, blobs [][]byte, meanBatch float64, out map[string]float64) error {
	if fr := rep.frames; len(fr) > 0 {
		out["comm.decode_ns_per_frame"] = timeOps(len(fr), func() {
			for _, b := range fr {
				f, err := comm.DecodeFrameBytes(b)
				if err == nil {
					_, _ = comm.DecodeIMU(f.Payload)
				}
			}
		})
		imus := make([]comm.IMUFrame, 0, len(fr))
		for _, b := range fr {
			f, err := comm.DecodeFrameBytes(b)
			if err != nil {
				return err
			}
			imu, err := comm.DecodeIMU(f.Payload)
			if err != nil {
				return err
			}
			imus = append(imus, imu)
		}
		rounds := 0
		for _, f := range imus {
			if f.EndRound {
				rounds++
			}
		}
		out["serve.assemble_ns_per_round"] = timeOps(rounds, func() {
			asm := serve.NewStreamAssembler(model.Sensors(), model.Window)
			for _, f := range imus {
				if end, err := asm.Ingest(f); err == nil && end {
					_ = asm.TakeRound()
				}
			}
		})
	}

	if ws := rep.windows; len(ws) > 0 {
		nets := model.System.CloneNetsB2()
		out["dnn.forward_us_per_window"] = timeOps(len(ws), func() {
			for i, w := range ws {
				_, _ = nets[rep.sensors[i]].Predict(w)
			}
		}) / 1e3
		b := int(math.Max(1, math.Round(meanBatch)))
		batches := batchBySensor(ws, rep.sensors, b)
		out["dnn.forward_batch_us_per_window"] = timeOps(len(batches)*b, func() {
			for _, bt := range batches {
				_, _ = nets[bt.sensor].PredictBatch(bt.x)
			}
		}) / 1e3
		q := make([]*dnn.QuantizedNetwork, len(nets))
		for i, n := range model.System.NetsB2 {
			qn, err := dnn.NewQuantizedNetwork(n)
			if err != nil {
				return err
			}
			q[i] = qn
		}
		out["dnn.forward_int8_us_per_window"] = timeOps(len(ws), func() {
			for i, w := range ws {
				_, _ = q[rep.sensors[i]].Predict(w)
			}
		}) / 1e3
	}

	if vs := rep.votes; len(vs) > 0 {
		var err error
		out["host.vote_adapt_us_per_round"] = timeOps(len(vs), func() {
			sess, e := fleet.NewSession("vote-probe", loadgen.UserID(0), model, fleet.Opts{})
			if e != nil {
				err = e
				return
			}
			for _, in := range vs {
				if _, e := sess.Classify(in); e != nil {
					err = e
					return
				}
			}
		}) / 1e3
		if err != nil {
			return err
		}
	}

	// The snapshot codec runs on the store's own blobs where the workload
	// has a store, and on the replayed sessions' states otherwise.
	if len(blobs) == 0 {
		for _, st := range rep.states {
			b, err := fleet.EncodeSessionState(st)
			if err != nil {
				return err
			}
			blobs = append(blobs, b)
		}
	}
	if len(blobs) > 0 {
		states := make([]fleet.SessionState, 0, len(blobs))
		for _, b := range blobs {
			st, err := fleet.DecodeSessionState(b)
			if err != nil {
				return err
			}
			states = append(states, st)
		}
		out["fleet.snapshot_decode_us"] = timeOps(len(blobs), func() {
			for _, b := range blobs {
				_, _ = fleet.DecodeSessionState(b)
			}
		}) / 1e3
		out["fleet.snapshot_encode_us"] = timeOps(len(states), func() {
			for _, st := range states {
				_, _ = fleet.EncodeSessionState(st)
			}
		}) / 1e3
		total := 0
		for _, b := range blobs {
			total += len(b)
		}
		out["fleet.snapshot_bytes"] = float64(total) / float64(len(blobs))
	}
	return nil
}

type sensorBatch struct {
	sensor int
	x      *tensor.Tensor
}

// batchBySensor packs windows of the same sensor into (b, channels, window)
// tensors, the shape the micro-batcher feeds PredictBatch; leftovers that do
// not fill a batch are dropped.
func batchBySensor(ws []*tensor.Tensor, sensors []int, b int) []sensorBatch {
	bySensor := map[int][]*tensor.Tensor{}
	for i, w := range ws {
		bySensor[sensors[i]] = append(bySensor[sensors[i]], w)
	}
	var out []sensorBatch
	for s := 0; s < synth.NumLocations; s++ {
		group := bySensor[s]
		for len(group) >= b {
			w0 := group[0]
			x := tensor.New(b, w0.Dim(0), w0.Dim(1))
			d := x.Data()
			per := w0.Len()
			for i := 0; i < b; i++ {
				copy(d[i*per:(i+1)*per], group[i].Data())
			}
			out = append(out, sensorBatch{sensor: s, x: x})
			group = group[b:]
		}
	}
	return out
}

// Distributed: run one campaign as a fleet job — a coordinator owning
// the canonical cell list, two workers leasing cells over loopback HTTP
// — and verify the merged output is byte-identical to the same campaign
// run on a single in-process session.
//
// In production the three roles are three processes (any machines):
//
//	experiments -serve :7400 -summary -csv out.csv   # coordinator
//	experiments -worker host:7400                    # worker, repeat at will
//
// Here they share one process so the example is self-contained. The
// coordinator's OnListen hook reports the bound address, which is how
// the workers find a ":0" ephemeral port. While the fleet runs, the
// workers heartbeat their leases (slow cells are never re-run), the
// coordinator may re-lease stragglers to whichever worker goes idle
// first, and a mid-run /v1/status snapshot shows the fleet's progress.
// docs/DISTRIBUTED.md specifies the protocol (lease state machine,
// renewal and stealing rules, dedup-on-re-lease, merge ordering).
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	clockgate "repro"
)

func main() {
	opts := clockgate.DefaultCampaignOptions()
	opts.Scale = 0.1 // quick tenth-size campaign

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The golden: the same campaign on one in-process session.
	session := clockgate.NewSession(opts)
	defer session.Close()
	local, err := session.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// The fleet job: coordinator + two workers on loopback. OnListen
	// fires once the coordinator accepts connections; it launches the
	// workers against the actual address.
	var wg sync.WaitGroup
	cfg := clockgate.ServeConfig{
		LeaseBatch:     2, // small batches so both workers get a share
		StealThreshold: 4, // near the end, idle workers may steal stragglers
		OnListen: func(addr string) {
			fmt.Printf("coordinator listening on %s, launching 2 workers\n", addr)
			for i := 1; i <= 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					name := fmt.Sprintf("worker-%d", i)
					stats, err := clockgate.Work(ctx, addr, clockgate.WorkerConfig{Name: name, Workers: 2})
					if err != nil {
						log.Printf("%s: %v", name, err)
						return
					}
					fmt.Printf("%s: %d cells over %d leases\n", name, stats.Cells, stats.Leases)
				}()
			}
			// The control plane: poll GET /v1/status mid-run, the same
			// snapshot `experiments -status addr` prints.
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(500 * time.Millisecond)
				if st, err := clockgate.FetchFleetStatus(ctx, addr); err == nil {
					fmt.Printf("fleet status:\n%s", st.Summary())
				}
			}()
		},
	}
	merged, err := clockgate.Serve(ctx, "127.0.0.1:0", opts, cfg)
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	var a, b strings.Builder
	if err := local.WriteCSV(&a); err != nil {
		log.Fatal(err)
	}
	if err := merged.WriteCSV(&b); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmerged %d cells; byte-identical to the local run: %v\n",
		len(merged.Outcomes), a.String() == b.String())
	if a.String() != b.String() {
		log.Fatal("the merged CSV differs from the local run's")
	}
	fmt.Println()
	fmt.Println(merged.SummaryText())
}

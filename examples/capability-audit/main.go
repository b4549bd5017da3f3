// Capability audit: reproduce Table 1 of the paper by running the
// Sect. 4 detection suite — chunking, bundling, compression,
// deduplication, delta encoding — against all five services.
//
// Every verdict is derived from the packet trace alone: the detectors
// cannot see inside the clients, exactly like the paper's testing
// application.
//
//	go run ./examples/capability-audit
package main

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
)

func main() {
	fmt.Println("Running the Sect. 4 capability checks for all services...")
	fmt.Println()

	profiles := client.Profiles()
	var order []string
	for _, p := range profiles {
		fmt.Printf("  checking %s...\n", p.Name)
		order = append(order, p.Service)
	}
	caps := core.DetectCapabilitiesAll(profiles, 42)

	fmt.Println()
	fmt.Println("Table 1: capabilities implemented in each service")
	fmt.Println()
	fmt.Print(core.Table1(caps, order))
	fmt.Println()
	fmt.Println("Note: the paper's summary — Dropbox has the most sophisticated")
	fmt.Println("client; Wuala, Google Drive and SkyDrive implement some")
	fmt.Println("capabilities; Cloud Drive implements none of them.")
}

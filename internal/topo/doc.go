// Package topo provides every network topology the evaluation system
// runs on.
//
// # Built-ins
//
// The paper's fixed inputs: the two worked examples (Fig. 1 and
// Fig. 4), the Abilene and Cernet2 backbones (Fig. 8, Table III), and
// Table3Networks — the seeded, fully deterministic registry of the
// paper's seven evaluation networks with their exact node and
// directed-link counts. Table3Network builds one of them by name.
//
// # Generators
//
// Seeded synthetic models, all deterministic and connected:
//
//   - Random — the paper's "Random" class: constant link probability,
//     unit capacities, connectivity via a random spanning tree.
//   - Hier2Level — GT-ITM style 2-level hierarchy (the paper's
//     "2-level" class): capacity-1 local links, capacity-5
//     long-distance links.
//   - Waxman — geometric random graph with the classic
//     short-link-biased probability alpha * exp(-d/(beta*L));
//     leftover components are joined through their closest pairs.
//   - BarabasiAlbert — preferential attachment, the heavy-tailed
//     degree shape of real router-level topologies.
//   - FatTree — the canonical k-ary data-center fabric, a uniform
//     stress test for equal-cost path splitting.
//   - GridNet — rows x cols lattice, optionally a torus.
//
// All topologies are directed: a physical cable is modeled as two
// opposite directed links, matching the paper's directed-link counts.
// Real-world dataset files (Topology Zoo, SNDlib) are parsed by the
// sibling package internal/topoio.
package topo

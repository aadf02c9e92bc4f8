// Reproduces Table I: the operator-reuse matrix — which of the five
// Poseidon operators (MA, MM, NTT/INTT, Automorphism, SBT) each FHE
// basic operation decomposes into. Derived from the actual compiler
// lowering, not hardcoded.

#include <cstdio>

#include "bench/bench_harness.h"
#include "common/table.h"
#include "isa/compiler.h"

using namespace poseidon;
using namespace poseidon::isa;

int
main(int argc, char **argv)
{
    bench::Harness h("table1_operator_reuse", argc, argv);
    OpShape s;
    s.n = u64(1) << 16;
    s.limbs = 44;
    s.K = 1;
    h.config("n", telemetry::Json(s.n));
    h.config("limbs", telemetry::Json(s.limbs));

    struct Row
    {
        const char *name;
        Trace trace;
        BasicOp tag;
    };
    std::vector<Row> rows;

    auto add = [&](const char *name, BasicOp tag, auto emitter) {
        Row r;
        r.name = name;
        r.tag = tag;
        emitter(r.trace);
        rows.push_back(std::move(r));
    };

    add("ModUp", BasicOp::ModUp, [&](Trace &t) { emit_modup(t, s); });
    add("ModDown", BasicOp::ModDown,
        [&](Trace &t) { emit_moddown(t, s); });
    add("HAdd", BasicOp::HAdd, [&](Trace &t) { emit_hadd(t, s); });
    add("PMult", BasicOp::PMult, [&](Trace &t) { emit_pmult(t, s); });
    add("CMult", BasicOp::CMult, [&](Trace &t) { emit_cmult(t, s); });
    add("Rotation", BasicOp::Rotation,
        [&](Trace &t) { emit_rotation(t, s); });
    add("Keyswitch", BasicOp::Keyswitch,
        [&](Trace &t) { emit_keyswitch(t, s); });
    add("Rescale", BasicOp::Rescale,
        [&](Trace &t) { emit_rescale(t, s); });
    add("Bootstrapping", BasicOp::Bootstrapping,
        [&](Trace &t) { emit_bootstrap(t, s, s.n / 2); });

    AsciiTable table(
        "Table I: operator reuse of FHE basic operations (from the "
        "compiler lowering)");
    table.header({"Operation", "MA", "MM", "NTT/INTT", "Automorphism",
                  "SBT"});
    auto mark = [](bool b) { return std::string(b ? "yes" : "-"); };
    for (const auto &r : rows) {
        bool ntt = r.trace.uses(r.tag, OpKind::NTT) ||
                   r.trace.uses(r.tag, OpKind::INTT);
        int used = (r.trace.uses(r.tag, OpKind::MA) ? 1 : 0) +
                   (r.trace.uses(r.tag, OpKind::MM) ? 1 : 0) +
                   (ntt ? 1 : 0) +
                   (r.trace.uses(r.tag, OpKind::AUTO) ? 1 : 0) +
                   (r.trace.uses(r.tag, OpKind::SBT) ? 1 : 0);
        h.metric(std::string(r.name) + ".operators_used", used);
        table.row({r.name, mark(r.trace.uses(r.tag, OpKind::MA)),
                   mark(r.trace.uses(r.tag, OpKind::MM)), mark(ntt),
                   mark(r.trace.uses(r.tag, OpKind::AUTO)),
                   mark(r.trace.uses(r.tag, OpKind::SBT))});
    }
    table.print();

    std::printf("\nShape: N=2^16, 44 ciphertext primes, 1 special "
                "prime.\n");
    return h.finish();
}

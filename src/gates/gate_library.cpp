#include "gates/gate_library.hpp"

#include <cassert>
#include <map>
#include <mutex>
#include <stdexcept>

#include "poly/sym_poly.hpp"

namespace zkphire::gates {

using poly::GateExpr;
using poly::Mle;
using poly::SlotId;
using poly::SymPoly;

namespace {

/** A slot name: prefix then decimal index, built by appending (GCC 12
 *  reports a false -Wrestrict overlap on an inlined "x" + std::to_string). */
std::string
indexedName(const char *prefix, unsigned i)
{
    std::string name(prefix);
    name += std::to_string(i);
    return name;
}

} // namespace

std::vector<Mle>
Gate::randomTables(unsigned num_vars, ff::Rng &rng) const
{
    std::vector<Mle> tables;
    tables.reserve(roles.size());
    for (SlotRole role : roles) {
        switch (role) {
          case SlotRole::Selector:
            tables.push_back(Mle::randomSparse(num_vars, rng, 0.5, 0.5));
            break;
          case SlotRole::Witness:
            tables.push_back(Mle::randomSparse(num_vars, rng, 0.6, 0.3));
            break;
          case SlotRole::Dense:
            tables.push_back(Mle::random(num_vars, rng));
            break;
        }
    }
    return tables;
}

namespace {

/** Builder state shared by the per-row constructors. */
struct GateBuilder {
    Gate gate;

    explicit GateBuilder(int id, std::string name)
    {
        gate.id = id;
        gate.name = name;
        gate.expr = GateExpr(std::move(name));
    }

    /** Register slot with role; return its symbolic variable. */
    SymPoly
    slot(const std::string &name, SlotRole role)
    {
        SlotId s = gate.expr.addSlot(name);
        gate.roles.push_back(role);
        return SymPoly::var(s);
    }

    Gate
    finish(const SymPoly &p)
    {
        p.addTo(gate.expr);
        assert(gate.expr.numTerms() > 0);
        return std::move(gate);
    }
};

SymPoly
c(std::int64_t v)
{
    return SymPoly::constant(v);
}

/** Rows 3-5 share the curve bracket y^2 - x^3 - 5. */
SymPoly
curveBracket(const SymPoly &x, const SymPoly &y)
{
    return y * y - x * x * x - c(5);
}

/** Append the f_r masking factor to a core gate (rows 20/22 from cores). */
Gate
withMaskingFactor(Gate core, int id, const char *name)
{
    Gate out;
    out.id = id;
    out.name = name;
    out.expr = core.expr.multipliedBySlot("f_r", nullptr);
    out.roles = std::move(core.roles);
    out.roles.push_back(SlotRole::Dense);
    return out;
}

} // namespace

Gate
vanillaCoreGate()
{
    GateBuilder b(-1, "Vanilla gate");
    auto qL = b.slot("qL", SlotRole::Selector);
    auto qR = b.slot("qR", SlotRole::Selector);
    auto qM = b.slot("qM", SlotRole::Selector);
    auto qO = b.slot("qO", SlotRole::Selector);
    auto qC = b.slot("qC", SlotRole::Witness);
    auto w1 = b.slot("w1", SlotRole::Witness);
    auto w2 = b.slot("w2", SlotRole::Witness);
    auto w3 = b.slot("w3", SlotRole::Witness);
    return b.finish(qL * w1 + qR * w2 + qM * w1 * w2 - qO * w3 + qC);
}

Gate
jellyfishCoreGate()
{
    GateBuilder b(-1, "Jellyfish gate");
    auto q1 = b.slot("q1", SlotRole::Selector);
    auto q2 = b.slot("q2", SlotRole::Selector);
    auto q3 = b.slot("q3", SlotRole::Selector);
    auto q4 = b.slot("q4", SlotRole::Selector);
    auto qM1 = b.slot("qM1", SlotRole::Selector);
    auto qM2 = b.slot("qM2", SlotRole::Selector);
    auto qH1 = b.slot("qH1", SlotRole::Selector);
    auto qH2 = b.slot("qH2", SlotRole::Selector);
    auto qH3 = b.slot("qH3", SlotRole::Selector);
    auto qH4 = b.slot("qH4", SlotRole::Selector);
    auto qO = b.slot("qO", SlotRole::Selector);
    auto qecc = b.slot("qecc", SlotRole::Selector);
    auto qC = b.slot("qC", SlotRole::Witness);
    auto w1 = b.slot("w1", SlotRole::Witness);
    auto w2 = b.slot("w2", SlotRole::Witness);
    auto w3 = b.slot("w3", SlotRole::Witness);
    auto w4 = b.slot("w4", SlotRole::Witness);
    auto w5 = b.slot("w5", SlotRole::Witness);
    return b.finish(q1 * w1 + q2 * w2 + q3 * w3 + q4 * w4 + qM1 * w1 * w2 +
                    qM2 * w3 * w4 + qH1 * w1.pow(5) + qH2 * w2.pow(5) +
                    qH3 * w3.pow(5) + qH4 * w4.pow(5) - qO * w5 +
                    qecc * w1 * w2 * w3 * w4 + qC);
}

Gate
permCoreGate(unsigned num_witnesses, const Fr &alpha)
{
    GateBuilder b(-1, "PermCheck core k=" + std::to_string(num_witnesses));
    auto pi = b.slot("pi", SlotRole::Dense);
    auto p1 = b.slot("p1", SlotRole::Dense);
    auto p2 = b.slot("p2", SlotRole::Dense);
    auto phi = b.slot("phi", SlotRole::Dense);
    SymPoly prod_d = SymPoly::constant(Fr::one());
    SymPoly prod_n = SymPoly::constant(Fr::one());
    for (unsigned j = 1; j <= num_witnesses; ++j)
        prod_d = prod_d * b.slot(indexedName("D", j), SlotRole::Dense);
    for (unsigned j = 1; j <= num_witnesses; ++j)
        prod_n = prod_n * b.slot(indexedName("N", j), SlotRole::Dense);
    SymPoly a = SymPoly::constant(alpha);
    return b.finish(pi - p1 * p2 + a * (phi * prod_d - prod_n));
}

namespace {

Gate
makeVanillaZeroCheck()
{
    return withMaskingFactor(vanillaCoreGate(), 20, "Vanilla ZeroCheck");
}

Gate
makeJellyfishZeroCheck()
{
    return withMaskingFactor(jellyfishCoreGate(), 22, "Jellyfish ZeroCheck");
}

Gate
makePermCheck(int id, const char *name, unsigned num_witnesses,
              const Fr &alpha)
{
    return withMaskingFactor(permCoreGate(num_witnesses, alpha), id, name);
}

Gate
makeOpenCheck()
{
    GateBuilder b(24, "OpenCheck");
    std::vector<SymPoly> ys, frs;
    for (int i = 1; i <= 6; ++i)
        ys.push_back(b.slot(indexedName("y", i), SlotRole::Witness));
    for (int i = 1; i <= 6; ++i)
        frs.push_back(b.slot(indexedName("f_r", i), SlotRole::Dense));
    SymPoly sum;
    for (int i = 0; i < 6; ++i)
        sum = sum + ys[i] * frs[i];
    return b.finish(sum);
}

} // namespace

namespace {

/** Canonical structural encoding: slot count plus every term's coefficient
 *  and factor slot *ids* (slot names can repeat, so toString() would let
 *  structurally different expressions collide onto one cached plan). */
std::string
structuralKey(const poly::GateExpr &expr)
{
    std::string key = std::to_string(expr.numSlots());
    for (const poly::Term &t : expr.terms()) {
        key += '|';
        key += t.coeff.toHexString();
        for (poly::SlotId f : t.factors) {
            key += ',';
            key += std::to_string(f);
        }
    }
    return key;
}

} // namespace

std::shared_ptr<const poly::GatePlan>
PlanCache::byKey(const std::string &key, const poly::GateExpr &expr)
{
    // Lowering under the lock keeps the invariant "one compiled plan per
    // structure"; plans are small and compilation is cheap relative to a
    // single SumCheck round, so contention is not a concern.
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it != entries.end())
        return it->second;
    auto plan = std::make_shared<const poly::GatePlan>(
        poly::GatePlan::compile(expr));
    entries.emplace(key, plan);
    return plan;
}

std::shared_ptr<const poly::GatePlan>
PlanCache::plan(const poly::GateExpr &expr)
{
    return byKey(structuralKey(expr), expr);
}

std::shared_ptr<const poly::GatePlan>
PlanCache::maskedPlan(const poly::GateExpr &expr)
{
    const std::string key = structuralKey(expr) + "*f_r";
    poly::GateExpr masked = expr.multipliedBySlot("f_r", nullptr);
    return byKey(key, masked);
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

Gate
tableIGate(int id, const Fr &alpha)
{
    switch (id) {
      case 0: {
        GateBuilder b(0, "Verifiable ASICs");
        auto qadd = b.slot("qadd", SlotRole::Selector);
        auto qmul = b.slot("qmul", SlotRole::Selector);
        auto a = b.slot("a", SlotRole::Witness);
        auto bb = b.slot("b", SlotRole::Witness);
        return b.finish(qadd * (a + bb) + qmul * (a * bb));
      }
      case 1: {
        GateBuilder b(1, "Spartan 1");
        auto A = b.slot("A", SlotRole::Witness);
        auto B = b.slot("B", SlotRole::Witness);
        auto C = b.slot("C", SlotRole::Witness);
        auto ftau = b.slot("f_tau", SlotRole::Dense);
        return b.finish((A * B - C) * ftau);
      }
      case 2: {
        GateBuilder b(2, "Spartan 2");
        auto s = b.slot("SumABC", SlotRole::Dense);
        auto z = b.slot("Z", SlotRole::Witness);
        return b.finish(s * z);
      }
      case 3: {
        GateBuilder b(3, "Nonzero Point Check");
        auto q = b.slot("q_nonid_point", SlotRole::Selector);
        auto x = b.slot("x", SlotRole::Witness);
        auto y = b.slot("y", SlotRole::Witness);
        return b.finish(q * curveBracket(x, y));
      }
      case 4: {
        GateBuilder b(4, "x-gated Curve Check");
        auto q = b.slot("q_point", SlotRole::Selector);
        auto x = b.slot("x", SlotRole::Witness);
        auto y = b.slot("y", SlotRole::Witness);
        return b.finish((q * x) * curveBracket(x, y));
      }
      case 5: {
        GateBuilder b(5, "y-gated Curve Check");
        auto q = b.slot("q_point", SlotRole::Selector);
        auto x = b.slot("x", SlotRole::Witness);
        auto y = b.slot("y", SlotRole::Witness);
        return b.finish((q * y) * curveBracket(x, y));
      }
      case 6: {
        GateBuilder b(6, "Incomplete Addition 1");
        auto q = b.slot("q_add_inc", SlotRole::Selector);
        auto xr = b.slot("x_r", SlotRole::Witness);
        auto xq = b.slot("x_q", SlotRole::Witness);
        auto xp = b.slot("x_p", SlotRole::Witness);
        auto yp = b.slot("y_p", SlotRole::Witness);
        auto yq = b.slot("y_q", SlotRole::Witness);
        return b.finish(q * ((xr + xq + xp) * (xp - xq).pow(2) -
                             (yp - yq).pow(2)));
      }
      case 7: {
        GateBuilder b(7, "Incomplete Addition 2");
        auto q = b.slot("q_add_inc", SlotRole::Selector);
        auto yr = b.slot("y_r", SlotRole::Witness);
        auto yq = b.slot("y_q", SlotRole::Witness);
        auto xp = b.slot("x_p", SlotRole::Witness);
        auto xq = b.slot("x_q", SlotRole::Witness);
        auto yp = b.slot("y_p", SlotRole::Witness);
        auto xr = b.slot("x_r", SlotRole::Witness);
        return b.finish(q * ((yr + yq) * (xp - xq) -
                             (yp - yq) * (xq - xr)));
      }
      case 8: {
        GateBuilder b(8, "Complete Addition 1");
        auto q = b.slot("q_add", SlotRole::Selector);
        auto xq = b.slot("x_q", SlotRole::Witness);
        auto xp = b.slot("x_p", SlotRole::Witness);
        auto lam = b.slot("lambda", SlotRole::Witness);
        auto yq = b.slot("y_q", SlotRole::Witness);
        auto yp = b.slot("y_p", SlotRole::Witness);
        return b.finish(q * (xq - xp) * ((xq - xp) * lam - (yq - yp)));
      }
      case 9: {
        GateBuilder b(9, "Complete Addition 2");
        auto q = b.slot("q_add", SlotRole::Selector);
        auto xq = b.slot("x_q", SlotRole::Witness);
        auto xp = b.slot("x_p", SlotRole::Witness);
        auto al = b.slot("alpha", SlotRole::Witness);
        auto yp = b.slot("y_p", SlotRole::Witness);
        auto lam = b.slot("lambda", SlotRole::Witness);
        return b.finish(q * (c(1) - (xq - xp) * al) *
                        (c(2) * yp * lam - c(3) * xp * xp));
      }
      case 10: case 11: case 12: case 13: {
        static const char *names[] = {
            "Complete Addition 3", "Complete Addition 4",
            "Complete Addition 5", "Complete Addition 6"};
        GateBuilder b(id, names[id - 10]);
        auto q = b.slot("q_add", SlotRole::Selector);
        auto xp = b.slot("x_p", SlotRole::Witness);
        auto xq = b.slot("x_q", SlotRole::Witness);
        auto yp = b.slot("y_p", SlotRole::Witness);
        auto yq = b.slot("y_q", SlotRole::Witness);
        auto xr = b.slot("x_r", SlotRole::Witness);
        auto yr = b.slot("y_r", SlotRole::Witness);
        auto lam = b.slot("lambda", SlotRole::Witness);
        // Gating factor: rows 10/11 use (x_q - x_p), rows 12/13 (y_q + y_p).
        SymPoly gatef = (id <= 11) ? (xq - xp) : (yq + yp);
        // Bracket: even rows lambda^2 - xp - xq - xr, odd rows
        // lambda(xp - xr) - yp - yr.
        SymPoly bracket = (id % 2 == 0)
                              ? (lam * lam - xp - xq - xr)
                              : (lam * (xp - xr) - yp - yr);
        return b.finish(q * xp * xq * gatef * bracket);
      }
      case 14: case 15: case 16: case 17: {
        static const char *names[] = {
            "Complete Addition 7", "Complete Addition 8",
            "Complete Addition 9", "Complete Addition 10"};
        GateBuilder b(id, names[id - 14]);
        auto q = b.slot("q_add", SlotRole::Selector);
        auto xp = b.slot("x_p", SlotRole::Witness);
        auto xq = b.slot("x_q", SlotRole::Witness);
        auto xr = b.slot("x_r", SlotRole::Witness);
        auto yp = b.slot("y_p", SlotRole::Witness);
        auto yq = b.slot("y_q", SlotRole::Witness);
        auto yr = b.slot("y_r", SlotRole::Witness);
        // Rows 14/15 gate on (1 - x_p*beta); 16/17 on (1 - x_q*gamma).
        auto inv = b.slot(id <= 15 ? "beta" : "gamma", SlotRole::Witness);
        SymPoly gatef = (id <= 15) ? (c(1) - xp * inv) : (c(1) - xq * inv);
        SymPoly diff;
        switch (id) {
          case 14: diff = xr - xq; break;
          case 15: diff = yr - yq; break;
          case 16: diff = xr - xp; break;
          default: diff = yr - yp; break;
        }
        return b.finish(q * gatef * diff);
      }
      case 18: case 19: {
        GateBuilder b(id, id == 18 ? "Complete Addition 11"
                                   : "Complete Addition 12");
        auto q = b.slot("q_add", SlotRole::Selector);
        auto xq = b.slot("x_q", SlotRole::Witness);
        auto xp = b.slot("x_p", SlotRole::Witness);
        auto al = b.slot("alpha", SlotRole::Witness);
        auto yq = b.slot("y_q", SlotRole::Witness);
        auto yp = b.slot("y_p", SlotRole::Witness);
        auto de = b.slot("delta", SlotRole::Witness);
        auto out = b.slot(id == 18 ? "x_r" : "y_r", SlotRole::Witness);
        return b.finish(
            q * (c(1) - (xq - xp) * al - (yq + yp) * de) * out);
      }
      case 20:
        return makeVanillaZeroCheck();
      case 21:
        return makePermCheck(21, "Vanilla PermCheck", 3, alpha);
      case 22:
        return makeJellyfishZeroCheck();
      case 23:
        return makePermCheck(23, "Jellyfish PermCheck", 5, alpha);
      case 24:
        return makeOpenCheck();
      default:
        throw std::out_of_range("Table I gate id must be 0-24");
    }
}

std::vector<Gate>
tableIGates(const Fr &alpha)
{
    std::vector<Gate> gates;
    gates.reserve(25);
    for (int id = 0; id < 25; ++id)
        gates.push_back(tableIGate(id, alpha));
    return gates;
}

std::vector<Gate>
trainingSetGates()
{
    std::vector<Gate> gates;
    gates.reserve(20);
    for (int id = 0; id < 20; ++id)
        gates.push_back(tableIGate(id));
    return gates;
}

Gate
sweepGate(unsigned d)
{
    assert(d >= 2);
    GateBuilder b(-1, "sweep-d" + std::to_string(d));
    auto q1 = b.slot("q1", SlotRole::Selector);
    auto q2 = b.slot("q2", SlotRole::Selector);
    auto q3 = b.slot("q3", SlotRole::Selector);
    auto qc = b.slot("qc", SlotRole::Witness);
    auto w1 = b.slot("w1", SlotRole::Witness);
    auto w2 = b.slot("w2", SlotRole::Witness);
    return b.finish(q1 * w1 + q2 * w2 + q3 * w1.pow(d - 1) * w2 + qc);
}

} // namespace zkphire::gates

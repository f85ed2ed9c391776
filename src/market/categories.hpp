// The 28 Google Play categories the paper crawls (top 100 apps each), with
// per-category propensities to request location used by the catalog
// generator. Propensities are our modelling choice (the paper does not
// report a per-category breakdown); only their normalised total — the
// 1,137-of-2,800 declaring apps — is calibrated to the paper.
#pragma once

#include <string_view>
#include <vector>

namespace locpriv::market {

/// Number of market categories (paper: 28).
inline constexpr int kCategoryCount = 28;

/// Display name of category `index` in [0, 28).
std::string_view category_name(int index);

/// Package-name slug of category `index` ("travel_local", ...).
std::string_view category_slug(int index);

/// Splits `total` declaring-app slots across categories proportionally to
/// propensity with a per-category cap of `per_category` apps, using the
/// largest-remainder method. The result sums exactly to `total`.
/// Preconditions: 0 <= total <= 28 * per_category, per_category > 0.
std::vector<int> allocate_declaring_quota(int total, int per_category);

}  // namespace locpriv::market
